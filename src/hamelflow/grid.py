"""Radial grid, weighted quadrature, and boundary-trace projection.

All radial profiles live on a geometric grid r_j = exp(j h), j = 0..J, with
r_0 = 1 and r_J = R_max exactly.  The solver needs two families of weighted
cumulative integrals,

    out_j = int_{r_j}^{inf} s f(s) (r_j / s)^zeta ds        (Re zeta >= 0),
    in_j  = int_{1}^{r_j}   s f(s) (s / r_j)^zeta ds        (Re zeta <= 0
                                                             after the sign
                                                             flip below),

evaluated at every node.  Both satisfy one-step recurrences along the grid
whose multipliers have modulus <= 1 for every exponent the solver uses, so
they are accumulated by stable linear scans rather than by repeated
summation.  Every routine takes either one profile or a stack of rows
(one exponent zeta per row), so all modes of a kernel family are integrated
in one call.

Per-segment integrals use a local power-law model: on [s_j, s_{j+1}] the
integrand G is replaced by G_j (s/s_j)^q with q = Log(G_{j+1}/G_j)/h, which
integrates in closed form and is exact whenever G is a pure power.  Segments
where the ratio is unusable (zeros, sign flips, wild phase) fall back to
trapezoid in the log variable.

Beyond R_max the integrand is modeled as a power tail r^p with p fitted from
the last five nodes and clamped to at most ``_TAIL_EXPONENT_FLOOR`` (the
shallowest decay the extrapolation will accept); a fitted p >= -1 with a
non-negligible magnitude at R_max raises ``DivergentTailError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DivergentTailError",
    "FluxMismatchError",
    "RadialGrid",
    "build_grid",
    "integrate_out_all",
    "integrate_in_all",
    "BoundarySpectrum",
    "project_boundary",
    "synthesize_boundary",
]

_PHASE_JUMP_LIMIT = 2.5     # |Im log ratio| beyond this -> fallback rule
_STEEP_SEGMENT_LIMIT = 2.5  # |Re log ratio| beyond this -> fallback rule
_CURVATURE_RAMP = (10.0, 50.0)  # log-curvature band blending the two rules
_DIVERGENCE_TOL = 1e-6      # fitted p >= -1 + this counts as divergent
_TAIL_EXPONENT_FLOOR = -1.1  # shallowest tail decay r^p extrapolated
_NEGLIGIBLE_TAIL = 1e-300
_SCAN_BLOCK = 16            # nodes per block of the recurrence scans
_MIN_NODES = 5              # the tail fit and the 5-point stencils


class DivergentTailError(ArithmeticError):
    """Tail extrapolation would diverge: fitted exponent >= -1.

    ``row`` is the index of the diverging row in the stack passed to
    ``integrate_out_all`` (0 for a single profile) and ``zeta`` its kernel
    exponent, which names the kernel family: k for the stream modes,
    zeta_n^+ for vorticity, -(phi0+1) and 0 for the mean mode.
    """

    def __init__(self, message, exponent=None, row=None, zeta=None):
        super().__init__(message)
        self.exponent = exponent
        self.row = row
        self.zeta = zeta

    def __str__(self):
        text = super().__str__()
        if self.row is None:
            return text
        z = complex(self.zeta)
        return (f"{text} (kernel row {self.row}, "
                f"zeta={z.real:.6g}{z.imag:+.6g}j)")


class FluxMismatchError(ValueError):
    """Boundary samples carry a mean radial velocity inconsistent with phi0."""


@dataclass(frozen=True)
class RadialGrid:
    """Geometric grid on [1, r_max] with nodes r_j = exp(j h), at least 5."""

    r_max: float
    nodes_per_decade: int
    h: float = field(init=False)
    r: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.r_max <= 1.0:
            raise ValueError(f"r_max must exceed 1, got {self.r_max}")
        if self.nodes_per_decade < 8:
            raise ValueError("nodes_per_decade must be at least 8")
        n_seg = int(np.ceil(self.nodes_per_decade * np.log10(self.r_max)))
        if n_seg + 1 < _MIN_NODES:
            raise ValueError(
                f"r_max={self.r_max:g} at {self.nodes_per_decade} nodes per "
                f"decade gives {n_seg + 1} nodes; need at least "
                f"{_MIN_NODES} for the tail fit and the residual stencils")
        h = np.log(self.r_max) / n_seg
        r = np.exp(h * np.arange(n_seg + 1))
        r[0] = 1.0
        r[-1] = self.r_max
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "r", r)

    @property
    def n_nodes(self) -> int:
        return self.r.size

    @property
    def log_r(self) -> np.ndarray:
        return self.h * np.arange(self.r.size)


def build_grid(r_max: float = 1e4, nodes_per_decade: int = 64) -> RadialGrid:
    return RadialGrid(r_max=float(r_max), nodes_per_decade=int(nodes_per_decade))


def _segment_power_integrals(s_left, a, b, h, a_prev=None, b_next=None):
    """Integral over [s_j, s_j e^h] of a local model through (a_j, b_j).

    a and b are the integrand values at the segment endpoints, referenced so
    that the integrand in x = log(s) is F(x_j) = s_j a_j and
    F(x_j + h) = s_j e^h b_j.  Two rules are blended:

    * the power model a_j (s/s_j)^q, exact for single powers and right for
      the steep near-power integrands the kernels produce;
    * a trapezoid rule corrected with the neighbouring values a_prev (one
      node to the left, same weight referencing) and b_next (one node to
      the right), whose error coefficients stay smooth through zeros of
      the integrand where the power model breaks down.

    The blend weight follows the local log-curvature |d q_eff / dx|
    estimated from the drift of the fitted exponent between adjacent
    segments.  That estimate is h-independent for a fixed feature, so the
    crossover happens at a fixed physical location and the quadrature
    error stays a smooth function of position; a hard rule switch would
    leave an h-independent kink in the scanned integral that downstream
    finite differences amplify.  Sign flips and extreme ratios force the
    corrected-trapezoid rule outright.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    finite, usable, logr = _log_ratios(a, b)
    f0 = a * s_left

    # Power model: (e^z - 1)/z with z = (q + 1) h, q = logr / h.
    z = np.where(usable, logr + h, 1.0)
    ipow = np.where(usable, f0 * h * _expm1_over(z), 0.0)

    # Corrected trapezoid: plain trapezoid plus the Euler-Maclaurin endpoint
    # term built from central-difference derivatives.
    eh = np.exp(h)
    f1 = b * s_left * eh
    trap = 0.5 * h * (f0 + f1)
    ict = trap
    if a_prev is not None and b_next is not None:
        fm1 = np.asarray(a_prev, dtype=complex) * s_left / eh
        f2 = np.asarray(b_next, dtype=complex) * s_left * (eh * eh)
        with np.errstate(all="ignore"):
            corr = (h / 24.0) * (f2 - f1 - f0 + fm1)
            good = np.isfinite(corr) & (np.abs(corr) <= 0.5 * np.abs(trap))
            ict = np.where(good, trap - corr, trap)

    # Blend weight: fraction of the corrected-trapezoid rule.
    if logr.shape[-1] > 1:
        step = np.abs(np.diff(logr, axis=-1))
        drift = np.maximum(np.concatenate([step[..., :1], step], axis=-1),
                           np.concatenate([step, step[..., -1:]], axis=-1))
    else:
        drift = np.zeros(logr.shape)
    lo, hi = _CURVATURE_RAMP
    ramp = np.clip((drift / (h * h) - lo) / (hi - lo), 0.0, 1.0)
    wgt = ramp * ramp * (3.0 - 2.0 * ramp)
    wgt = np.where(usable, wgt, 1.0)

    mixed = (1.0 - wgt) * ipow + wgt * ict
    return np.where(finite, mixed, 0.0)


def _log_ratios(a, b):
    """(finite, usable, Log(b/a)) per segment of the power model.

    A segment is usable when both values are finite and nonzero and the log
    ratio stays within the phase and steepness limits; its log ratio is 0
    where it is not.
    """
    finite = np.isfinite(a) & np.isfinite(b)
    usable = finite & (a != 0) & (b != 0)
    with np.errstate(all="ignore"):
        ratio = np.where(usable, b, 1.0) / np.where(usable, a, 1.0)
        logr = _complex_log(ratio)
    usable &= (np.isfinite(logr)
               & (np.abs(logr.imag) < _PHASE_JUMP_LIMIT)
               & (np.abs(logr.real) < _STEEP_SEGMENT_LIMIT))
    return finite, usable, np.where(usable, logr, 0.0)


def _complex_log(z):
    """Principal log of a complex array as log|z| + i arg z.

    Same values and branch cut (arg of -x - 0i is -pi) as complex ``np.log``
    to a few ulp, at a fraction of its cost.
    """
    out = np.empty(z.shape, dtype=complex)
    out.real = np.log(np.abs(z))
    out.imag = np.arctan2(z.imag, z.real)
    return out


def _complex_expm1(z):
    """e^z - 1 for a complex array, from real expm1/exp/sin/cos.

    The real part expm1(x) cos y - 2 sin^2(y/2) keeps full relative accuracy
    for small |z|.  It is the formula numpy's complex expm1 applies element
    by element, here in whole-array real operations.
    """
    x, y = z.real, z.imag
    half = np.sin(0.5 * y)
    out = np.empty(z.shape, dtype=complex)
    out.real = np.expm1(x) * np.cos(y) - 2.0 * half * half
    out.imag = np.exp(x) * np.sin(y)
    return out


def _expm1_over(z):
    """(e^z - 1)/z for a complex array: the quotient, with its cubic series
    1 + z/2 + z^2/6 + z^3/24 on the elements where |z| < 1e-4 (formed on
    those elements only)."""
    with np.errstate(all="ignore"):
        out = _complex_expm1(z) / z
    small = np.abs(z) < 1e-4
    if small.any():
        zs = z[small]
        out[small] = 1.0 + zs / 2.0 + zs * zs / 6.0 + zs * zs * zs / 24.0
    return out


def _tail_value(grid: RadialGrid, g_last5, r_last5):
    """Extrapolated int_{R_max}^inf of integrands sampled at the last 5 nodes.

    ``g_last5`` holds one integrand per row.  The local exponent is fitted
    as a complex number from consecutive log ratios so oscillatory power
    tails (complex weight exponents) extrapolate exactly; sign-changing or
    noisy samples fall back to a fit of the magnitudes alone.  Raises
    ``DivergentTailError`` if any row diverges.
    """
    g = np.asarray(g_last5, dtype=complex)
    mags = np.abs(g)
    g_end = g[:, -1]
    negligible = np.abs(g_end) <= np.fmax(_NEGLIGIBLE_TAIL,
                                          1e-14 * mags.max(axis=1))
    p = np.full(g_end.shape, complex(_TAIL_EXPONENT_FLOOR))
    fit = ~negligible & ~np.any(mags <= 0.0, axis=1)
    if np.any(fit):
        with np.errstate(all="ignore"):
            logs = np.log(g[fit, 1:] / g[fit, :-1])
            phased = (np.all(np.isfinite(logs), axis=1)
                      & (np.abs(logs.imag).max(axis=1) < _PHASE_JUMP_LIMIT))
            p_fit = logs.mean(axis=1) / grid.h
        if not np.all(phased):
            p_fit[~phased] = np.polyfit(np.log(r_last5),
                                        np.log(mags[fit][~phased]).T, 1)[0]
        diverging = p_fit.real >= -1.0 + _DIVERGENCE_TOL
        if np.any(diverging):
            i = np.flatnonzero(diverging)[np.argmax(p_fit.real[diverging])]
            worst = float(p_fit.real[i])
            raise DivergentTailError(
                f"integrand tail fitted as r^{worst:.3g} at "
                f"r_max={grid.r_max:g}; the weighted integral does not "
                "converge", exponent=worst, row=int(np.flatnonzero(fit)[i]))
        p[fit] = p_fit
    p = np.where(p.real > _TAIL_EXPONENT_FLOOR, _TAIL_EXPONENT_FLOOR, p)
    return np.where(negligible, 0.0 + 0.0j, g_end * grid.r_max / (-(p + 1.0)))


def _scan_forward(local, factor):
    """e_j = factor * e_{j-1} + local_j along the last axis, one factor per row.

    The nodes are cut into blocks of ``_SCAN_BLOCK``.  Inside a block the
    recurrence is a lower-triangular Toeplitz product with the powers
    factor^0..factor^_SCAN_BLOCK, and a short loop over the blocks carries
    each block's last value into the next.  No power beyond
    factor^_SCAN_BLOCK is formed, so nothing underflows or overflows the way
    a global cumulative product factor^j does for high modes on long grids.
    """
    rows, n = local.shape
    size = _SCAN_BLOCK
    n_blocks = -(-n // size)
    x = np.zeros((rows, n_blocks * size), dtype=complex)
    x[:, :n] = local
    x = x.reshape(rows, n_blocks, size)
    powers = factor[:, None] ** np.arange(size + 1)
    lag = np.subtract.outer(np.arange(size), np.arange(size))
    toeplitz = np.where(lag >= 0, powers[:, np.maximum(lag, 0)], 0.0)
    scan = x @ toeplitz.transpose(0, 2, 1)
    carry_in = powers[:, 1:]
    for b in range(1, n_blocks):
        scan[:, b] += scan[:, b - 1, -1:] * carry_in
    return scan.reshape(rows, -1)[:, :n]


def _scan_backward(local, factor):
    """d_j = local_j + factor * d_{j+1}, d_J = seed folded into local[-1]."""
    return _scan_forward(local[:, ::-1], factor)[:, ::-1]


def _rows(grid: RadialGrid, f, zeta):
    """Samples as (rows, nodes) and exponents as a (rows, 1) column."""
    f = np.asarray(f, dtype=complex)
    if f.ndim not in (1, 2) or f.shape[-1] != grid.n_nodes:
        raise ValueError("sample array does not match the grid")
    rows = np.atleast_2d(f)
    zeta = np.asarray(zeta, dtype=complex).reshape(-1)
    if zeta.size != rows.shape[0]:
        raise ValueError("need one exponent zeta per sample row")
    return rows, zeta[:, None]


def _live_rows(kernel, grid: RadialGrid, rows, zeta):
    """``kernel`` on the rows holding a nonzero sample, scattered back.

    An all-zero row integrates to exactly +0 with no quadrature, tail fit or
    scan; the kernel on it would return the same +0.
    """
    live = np.any(rows != 0, axis=1)
    try:
        if live.all():
            return kernel(grid, rows, zeta)
        out = np.zeros(rows.shape, dtype=complex)
        if live.any():
            out[live] = kernel(grid, rows[live], zeta[live])
        return out
    except DivergentTailError as exc:
        # the kernel saw the live rows only: name the row of the caller's
        # stack and its exponent
        exc.row = int(np.flatnonzero(live)[exc.row])
        exc.zeta = complex(zeta[exc.row, 0])
        raise


def integrate_out_all(grid: RadialGrid, f, zeta) -> np.ndarray:
    """out_j = int_{r_j}^inf s f(s) (r_j/s)^zeta ds for every node j.

    ``f`` is one profile of shape (nodes,) with a scalar ``zeta``, or a
    stack of shape (rows, nodes) with one ``zeta`` per row; the result has
    the shape of ``f``.  The scan multiplier is e^{-zeta h}, of modulus
    <= 1 for Re zeta >= 0, which covers every solver use except the
    sink-weighted inner integral (zeta = -(phi0+1)); its growth is matched
    by the decay of the values it multiplies, keeping the relative error at
    O(J eps).  Rows that are identically zero return +0 at no cost.
    """
    f2, zeta = _rows(grid, f, zeta)
    out = _live_rows(_integrate_out, grid, f2, zeta)
    return out if np.ndim(f) == 2 else out[0]


def _integrate_out(grid: RadialGrid, f2, zeta):
    """``integrate_out_all`` on a (rows, nodes) stack, zeta a (rows, 1) column."""
    r = grid.r
    h = grid.h
    base = r * f2
    # Integrand of segment j referenced to its own left endpoint:
    # value a_j at r_j, value b_j = r_{j+1} f_{j+1} e^{-zeta h} at r_{j+1};
    # the node one to the left carries weight e^{+zeta h}, the node two to
    # the right e^{-2 zeta h}.
    step = np.exp(-zeta * h)
    a_prev = np.full((base.shape[0], grid.n_nodes - 1), np.nan, dtype=complex)
    a_prev[:, 1:] = base[:, :-2] / step
    b_next = np.full_like(a_prev, np.nan)
    b_next[:, :-1] = base[:, 2:] * (step * step)
    seg = _segment_power_integrals(r[:-1], base[:, :-1], base[:, 1:] * step,
                                   h, a_prev, b_next)

    g_last5 = base[:, -5:] * (grid.r_max / r[-5:]) ** zeta
    tail = _tail_value(grid, g_last5, r[-5:])

    local = np.empty_like(base)
    local[:, :-1] = seg
    local[:, -1] = tail
    return _scan_backward(local, step[:, 0])


def integrate_in_all(grid: RadialGrid, f, zeta) -> np.ndarray:
    """in_j = int_1^{r_j} s f(s) (r_j/s)^zeta ds for every node j.

    Same shapes as ``integrate_out_all``.  Stable for Re zeta <= 0 (scan
    multiplier e^{zeta h}).
    """
    f2, zeta = _rows(grid, f, zeta)
    out = _live_rows(_integrate_in, grid, f2, zeta)
    return out if np.ndim(f) == 2 else out[0]


def _integrate_in(grid: RadialGrid, f2, zeta):
    """``integrate_in_all`` on a (rows, nodes) stack, zeta a (rows, 1) column."""
    r = grid.r
    h = grid.h
    base = r * f2
    # Segment j-1..j referenced to its right endpoint r_j:
    # left value a = r_{j-1} f_{j-1} e^{zeta h}, right value b = r_j f_j;
    # neighbouring nodes carry weights e^{2 zeta h} and e^{-zeta h}.
    step = np.exp(zeta * h)
    a_prev = np.full((base.shape[0], grid.n_nodes - 1), np.nan, dtype=complex)
    a_prev[:, 1:] = base[:, :-2] * (step * step)
    b_next = np.full_like(a_prev, np.nan)
    b_next[:, :-1] = base[:, 2:] / step
    seg = _segment_power_integrals(r[:-1], base[:, :-1] * step, base[:, 1:],
                                   h, a_prev, b_next)

    local = np.empty_like(base)
    local[:, 0] = 0.0
    local[:, 1:] = seg
    return _scan_forward(local, step[:, 0])


# ---------------------------------------------------------------------------
# boundary traces


@dataclass(frozen=True)
class BoundarySpectrum:
    """Fourier data of the boundary trace relative to the reference flow.

    vr[n] and vtheta[n] for n = 0..n_max are coefficients of
    (u_r* + phi0) and (u_theta* - mu); negative modes follow by conjugation.
    vr[0] vanishes by flux matching and vtheta[0] = mu0 - mu.
    """

    n_max: int
    vr: np.ndarray
    vtheta: np.ndarray
    phi0: float
    mu0: float
    mu: float

    def with_mu(self, mu: float) -> "BoundarySpectrum":
        """Same physical trace rebudgeted against circulation mu."""
        vtheta = self.vtheta.copy()
        vtheta[0] = self.mu0 - mu
        return BoundarySpectrum(n_max=self.n_max, vr=self.vr.copy(),
                                vtheta=vtheta, phi0=self.phi0,
                                mu0=self.mu0, mu=float(mu))


def project_boundary(ur_samples, utheta_samples, n_max: int, mu: float,
                     phi0: float | None = None) -> BoundarySpectrum:
    """Project equispaced boundary samples onto modes 0..n_max.

    Samples are values at theta_m = 2 pi m / M, M >= 2 n_max + 2.  When
    ``phi0`` is given, the sampled mean radial velocity must reproduce it to
    1e-10; otherwise phi0 is inferred from the samples.
    """
    ur = np.asarray(ur_samples, dtype=float)
    ut = np.asarray(utheta_samples, dtype=float)
    if ur.ndim != 1 or ur.shape != ut.shape:
        raise ValueError("need matching 1-d sample arrays")
    m = ur.size
    if m < 2 * n_max + 2:
        raise ValueError(f"need at least {2 * n_max + 2} samples for n_max={n_max}")

    mean_ur = float(np.mean(ur))
    if phi0 is None:
        phi0 = -mean_ur
    elif abs(mean_ur + phi0) > 1e-10 * max(1.0, abs(phi0)):
        raise FluxMismatchError(
            f"mean radial velocity {mean_ur:.3e} inconsistent with flux "
            f"phi0={phi0:g}")
    if phi0 < 0:
        raise ValueError("inferred flux phi0 is negative")
    mu0 = float(np.mean(ut))

    vr = np.fft.fft(ur + phi0)[: n_max + 1] / m
    vtheta = np.fft.fft(ut - mu)[: n_max + 1] / m
    vr[0] = 0.0                # exact by construction of phi0
    vtheta[0] = mu0 - mu       # exact zeroth coefficient
    return BoundarySpectrum(n_max=int(n_max), vr=vr, vtheta=vtheta,
                            phi0=float(phi0), mu0=mu0, mu=float(mu))


def synthesize_boundary(spec: BoundarySpectrum, n_samples: int):
    """Inverse of ``project_boundary``: samples of (u_r*, u_theta*)."""
    theta = 2.0 * np.pi * np.arange(n_samples) / n_samples
    n = np.arange(spec.n_max + 1)[:, None]
    phases = np.exp(1j * n * theta[None, :])
    weights = np.where(n == 0, 1.0, 2.0)
    ur = -spec.phi0 + np.sum(weights * (spec.vr[:, None] * phases).real, axis=0)
    ut = spec.mu + np.sum(weights * (spec.vtheta[:, None] * phases).real, axis=0)
    return ur, ut

