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
integrates in closed form and is exact whenever G is a pure power.  Where the
fitted exponent drifts between neighbouring segments (high log-curvature),
the model is blended smoothly into a trapezoid rule in the log variable
with an Euler-Maclaurin endpoint correction from the neighbouring nodes;
segments where the ratio is unusable (zeros, sign flips, wild phase) take
that corrected trapezoid alone.  The blend is formed only on the segments
where it weighs.

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
# Entry (k, m) of a scan block's Toeplitz matrix is factor^(k - m) below the
# diagonal and 0 above it: the index of that power, or of a trailing 0.
_SCAN_LAG = np.subtract.outer(np.arange(_SCAN_BLOCK), np.arange(_SCAN_BLOCK))
_SCAN_LAG = np.where(_SCAN_LAG >= 0, _SCAN_LAG, _SCAN_BLOCK + 1)


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


def _segment_power_integrals(s_left, a, b, h, neighbours=None):
    """Integral over [s_j, s_j e^h] of a local model through (a_j, b_j).

    a and b are (rows, segments) stacks of the integrand values at the
    segment endpoints, referenced so that the integrand in x = log(s) is
    F(x_j) = s_j a_j and F(x_j + h) = s_j e^h b_j.  Two rules are blended:

    * the power model a_j (s/s_j)^q, exact for single powers and right for
      the steep near-power integrands the kernels produce;
    * a trapezoid rule corrected with the neighbouring values a_prev (one
      node to the left, same weight referencing) and b_next (one node to
      the right), whose error coefficients stay smooth through zeros of
      the integrand where the power model breaks down.
      ``neighbours(i, j)`` returns both for the segments (i, j) named by
      two index arrays, nan where the node lies off the grid; without it
      the trapezoid is uncorrected.

    The blend weight follows the local log-curvature |d q_eff / dx|
    estimated from the drift of the fitted exponent between adjacent
    segments.  That estimate is h-independent for a fixed feature, so the
    crossover happens at a fixed physical location and the quadrature
    error stays a smooth function of position; a hard rule switch would
    leave an h-independent kink in the scanned integral that downstream
    finite differences amplify.  Sign flips and extreme ratios force the
    corrected-trapezoid rule outright.

    Most segments carry weight 0.  There (1 - 0) ipow + 0 ict is ipow bit
    for bit, as long as ipow has finite nonzero parts and ict is finite,
    so the blend, and the corrected trapezoid with it, is formed on the
    other segments only.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    finite, usable, logr, ratio, mag = _log_ratios(a, b)
    every = finite is None
    f0 = a * s_left

    # Power model: (e^z - 1)/z with z = (q + 1) h, q = logr / h.
    z = logr + h
    ipow = f0 * h * _expm1_over(z, ratio, mag)

    eh = np.exp(h)
    f1 = b * s_left * eh
    trap = 0.5 * h * (f0 + f1)

    # Blend weight: fraction of the corrected-trapezoid rule, nonzero where
    # the drift exceeds the ramp's foot.
    n_seg = logr.shape[-1]
    if n_seg > 1:
        step = np.abs(np.diff(logr, axis=-1))
        drift = np.maximum(np.concatenate([step[..., :1], step], axis=-1),
                           np.concatenate([step, step[..., -1:]], axis=-1))
    else:
        drift = np.zeros(logr.shape)
    lo, hi = _CURVATURE_RAMP
    curv = drift / (h * h)
    blend = curv > lo
    # The weight-0 sum is not ipow itself where ipow has a zero or
    # non-finite part, or where ict may not be finite: |2 trap| finite
    # keeps trap - corr finite, as |corr| <= |trap| / 2.
    t = ipow.real * ipow.imag * np.abs(trap + trap)
    blend |= ~np.isfinite(t) | (t == 0)
    if not every:
        blend |= ~usable
    k = np.flatnonzero(blend)
    if not k.size:
        return ipow
    # Repeats of the last blended segment fill k up to a whole number of
    # rows.  Arrays of a new small size in every call would fragment the
    # heap (and numpy's cache of small blocks) and raise the memory peak.
    k = np.concatenate([k, np.full(-k.size % n_seg, k[-1])])

    # Corrected trapezoid: plain trapezoid plus the Euler-Maclaurin endpoint
    # term built from central-difference derivatives.
    i, j = np.divmod(k, n_seg)
    ict = trap.take(k)
    if neighbours is not None:
        a_prev, b_next = neighbours(i, j)
        s = s_left[j]
        fm1 = a_prev * s / eh
        f2 = b_next * s * (eh * eh)
        with np.errstate(all="ignore"):
            corr = (h / 24.0) * (f2 - f1.take(k) - f0.take(k) + fm1)
            good = np.isfinite(corr) & (np.abs(corr) <= 0.5 * np.abs(ict))
        ict = np.where(good, ict - corr, ict)

    ramp = np.minimum(np.maximum((curv.take(k) - lo) / (hi - lo), 0.0), 1.0)
    wgt = ramp * ramp * (3.0 - 2.0 * ramp)
    model = ipow.take(k)
    if not every:
        power = usable.take(k)
        wgt = np.where(power, wgt, 1.0)
        model = np.where(power, model, 0.0)
    mixed = (1.0 - wgt) * model + wgt * ict
    if not every:
        mixed = np.where(finite.take(k), mixed, 0.0)
    ipow.put(k, mixed)
    return ipow


def _log_ratios(a, b):
    """(finite, usable, Log(b/a), b/a, |b/a|) per segment of the power model.

    A segment is usable when both values are finite and nonzero and the log
    ratio stays within the phase and steepness limits; its log ratio is 0
    where it is not.  Only usable segments read the ratio and its modulus.
    When every segment is usable, ``finite`` is None: a quotient inside
    both limits is finite and nonzero, which IEEE complex division gives
    only for finite nonzero operands.
    """
    with np.errstate(all="ignore"):
        ratio = b / a
        mag = np.abs(ratio)
        logr = _complex_log(ratio, mag)
    usable = ((np.abs(logr.imag) < _PHASE_JUMP_LIMIT)
              & (np.abs(logr.real) < _STEEP_SEGMENT_LIMIT))
    if usable.all():
        return None, usable, logr, ratio, mag
    finite = np.isfinite(a) & np.isfinite(b)
    usable &= finite & (a != 0) & (b != 0)
    return finite, usable, np.where(usable, logr, 0.0), ratio, mag


def _complex_log(z, modulus=None):
    """Principal log of a complex array as log|z| + i arg z.

    Same values and branch cut (arg of -x - 0i is -pi) as complex ``np.log``
    to a few ulp, at a fraction of its cost.  ``modulus`` is |z| when the
    caller has it.
    """
    out = np.empty(z.shape, dtype=complex)
    out.real = np.log(np.abs(z) if modulus is None else modulus)
    out.imag = np.arctan2(z.imag, z.real)
    return out


def _phasor_expm1(x, ratio, modulus):
    """e^z - 1 for z = x + i arg(ratio), with no trig call.

    cos y and sin y are the parts of the phasor ratio/|ratio| (``modulus``
    is |ratio|).  The real part expm1(x) cos y - 2 sin^2(y/2) keeps full
    relative accuracy for small |z|: 2 sin^2(y/2) is sin^2 y / (1 + cos y)
    where cos y >= 0, and 1 - cos y where that has no cancellation.
    """
    cos_y = ratio.real / modulus
    sin_y = ratio.imag / modulus
    half = sin_y * sin_y / (1.0 + cos_y)
    wide = cos_y < 0.0
    if wide.any():
        half[wide] = 1.0 - cos_y[wide]
    out = np.empty(np.shape(x), dtype=complex)
    out.real = np.expm1(x) * cos_y - half
    out.imag = np.exp(x) * sin_y
    return out


def _expm1_over(z, ratio, modulus):
    """(e^z - 1)/z for a complex array z whose imaginary part is
    arg(ratio), |ratio| = ``modulus``: the quotient, with its cubic series
    1 + z/2 + z^2/6 + z^3/24 on the elements where |z| < 1e-4 (formed on
    those elements only)."""
    with np.errstate(all="ignore"):
        out = _phasor_expm1(z.real, ratio, modulus) / z
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
    factor^0..factor^_SCAN_BLOCK.  A short loop over the blocks carries
    each block's last value into the next, c_b = last_b + c_{b-1} p, with
    p = factor^_SCAN_BLOCK, and one broadcast update adds c_{b-1}
    factor^(k+1) to node k of block b.  No power beyond factor^_SCAN_BLOCK
    is formed, so nothing underflows or overflows the way a global
    cumulative product factor^j does for high modes on long grids.
    """
    rows, n = local.shape
    size = _SCAN_BLOCK
    n_blocks = -(-n // size)
    x = np.zeros((rows, n_blocks * size), dtype=complex)
    x[:, :n] = local
    x = x.reshape(rows, n_blocks, size)
    powers = np.zeros((rows, size + 2), dtype=complex)
    powers[:, :-1] = factor[:, None] ** np.arange(size + 1)
    scan = x @ powers[:, _SCAN_LAG].transpose(0, 2, 1)
    if n_blocks > 1:
        carry = scan[:, :, -1].T.copy()
        top = powers[:, size]
        prev = carry[0]
        for last in carry[1:]:
            last += prev * top
            prev = last
        scan[:, 1:] += carry[:-1].T[:, :, None] * powers[:, None, 1:-1]
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


def _nodes_and_ends(r, f2):
    """r f as the inner columns of a stack that adds a nan node beyond each
    end: (that stack, r f).  Node j of the grid is column j + 1."""
    ends = np.full((f2.shape[0], r.size + 2), np.nan, dtype=complex)
    base = ends[:, 1:-1]
    np.multiply(r, f2, out=base)
    return ends, base


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
    ends, base = _nodes_and_ends(r, f2)
    # Integrand of segment j referenced to its own left endpoint:
    # value a_j at r_j, value b_j = r_{j+1} f_{j+1} e^{-zeta h} at r_{j+1};
    # the node one to the left carries weight e^{+zeta h}, the node two to
    # the right e^{-2 zeta h}.
    step = np.exp(-zeta * h)
    sq = step * step
    # nodes j - 1 and j + 2 of segment j sit in columns j and j + 3 of ends
    seg = _segment_power_integrals(
        r[:-1], base[:, :-1], base[:, 1:] * step, h,
        lambda i, j: (ends[i, j] / step[i, 0], ends[i, j + 3] * sq[i, 0]))

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
    ends, base = _nodes_and_ends(r, f2)
    # Segment j-1..j referenced to its right endpoint r_j:
    # left value a = r_{j-1} f_{j-1} e^{zeta h}, right value b = r_j f_j;
    # neighbouring nodes carry weights e^{2 zeta h} and e^{-zeta h}.
    step = np.exp(zeta * h)
    sq = step * step
    # nodes j - 1 and j + 2 of segment j sit in columns j and j + 3 of ends
    seg = _segment_power_integrals(
        r[:-1], base[:, :-1] * step, base[:, 1:], h,
        lambda i, j: (ends[i, j] * sq[i, 0], ends[i, j + 3] / step[i, 0]))

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

