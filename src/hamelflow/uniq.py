"""Desk-scale checks of the quadratic forms behind the uniqueness argument.

The difference of two solutions is a velocity field with stream modes
phi_k; splitting it into the |k| = 1 part and the rest, the energy identity
bounds the nonlinear terms by a weighted Dirichlet form

    Q_plus(phi) = ||grad v||^2
                  + phi0 * sum_k int (k^2 |phi_k|^2 / r^4 - |phi_k'|^2 / r^2) r dr,

(2 pi and conjugate-pair factors included), whose |k| = 1 part integrates by
parts to the manifestly nonnegative

    Q_1 = 2 pi sum_{k=+-1} int [ (3 - phi0) |d_r(phi_k/r)|^2 + |phi_k''|^2 ] r dr

for phi0 <= 3, while the |k| >= 2 remainder Q_sup1 = Q_plus - Q_1 dominates
a fixed fraction of the gradient-plus-weighted norm of that part.  These
facts, a truncated Hardy inequality, and per-node Poincare-type mode
inequalities are what the randomized suites here probe.  All streams are
compactly supported smooth bumps in the log variable so every boundary term
in the continuum identities vanishes identically.  Leading array axes stack
independent samples; each form returns one value per sample (a float for one).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import RadialGrid, build_grid

__all__ = [
    "TestStream",
    "random_stream",
    "random_w_profile",
    "HardyResult",
    "hardy_check",
    "hardy_sharpness",
    "positivity_factor",
    "positivity_roots",
    "QFormResult",
    "q_form",
    "poincare_wirtinger_check",
    "Q1Probe",
    "probe_q1_negativity",
]

# Profile rows (samples x modes) in one stack of the randomized suites, which
# bounds their working arrays: 50 profiles or probe samples, 10 streams.
_STACK_ROWS = 50


# ---------------------------------------------------------------------------
# compactly supported test data


def _bump(u):
    """C^3 bump (1-u^2)^4 on |u| < 1 with its first two derivatives.

    Built from products of v = max(1 - u^2, 0), so all three vanish
    outside the support without a select.
    """
    v = np.maximum(1.0 - u * u, 0.0)
    v2 = v * v
    v3 = v2 * v
    return v2 * v2, -8.0 * u * v3, -8.0 * v3 + 48.0 * u * u * v2


def _bump_profile(grid: RadialGrid, rng, size, rows: tuple, n_bumps: int,
                  complex_amp: bool):
    """Sums of interior bumps in x = log r: (phi, d_r phi, d_rr phi) of shape
    lead + rows + (n_nodes,), with lead from a numpy-style ``size``."""
    x = grid.log_r
    big_l = x[-1]
    shape = (() if size is None else tuple(np.atleast_1d(size).tolist())) + rows
    phi = np.zeros(shape + (grid.n_nodes,), complex if complex_amp else float)
    dphi_x, d2phi_x = np.zeros_like(phi), np.zeros_like(phi)
    col = shape + (1,)
    for _ in range(n_bumps):
        c = rng.uniform(0.2 * big_l, 0.8 * big_l, col)
        half = np.minimum(np.minimum(c - 0.05 * big_l, 0.95 * big_l - c),
                          0.3 * big_l)
        width = rng.uniform(0.3 * half, half)
        amp = rng.normal(size=col) + (1j * rng.normal(size=col)
                                      if complex_amp else 0.0)
        b, db, d2b = _bump((x - c) / width)
        phi += amp * b
        dphi_x += (amp / width) * db
        d2phi_x += (amp / (width * width)) * d2b
    r = grid.r
    return phi, dphi_x / r, (d2phi_x - dphi_x) / (r * r)


def _stacks(n_samples: int, per_sample: int = 1):
    """Sizes of the ``_STACK_ROWS``-row stacks covering ``n_samples``."""
    step = max(1, _STACK_ROWS // per_sample)
    return [min(step, n_samples - i) for i in range(0, n_samples, step)]


@dataclass(frozen=True, eq=False)
class TestStream:
    """Stream modes phi_k (k >= 1 rows) with analytic radial derivatives."""

    grid: RadialGrid
    modes: np.ndarray     # the k values, each >= 1
    phi: np.ndarray       # (..., len(modes), n_nodes); leading axes: streams
    dphi: np.ndarray
    d2phi: np.ndarray


def random_stream(grid: RadialGrid, rng, modes=(1, 2, 3, 4, 5),
                  n_bumps: int = 2, size=None) -> TestStream:
    """Bump-sum modes with complex amplitudes; ``size`` (None, an int or a
    tuple, as for numpy's Generator) is the leading shape of a stack."""
    modes = np.asarray(sorted(set(int(k) for k in modes)))
    if np.any(modes < 1):
        raise ValueError("stream modes must be >= 1")
    return TestStream(grid, modes, *_bump_profile(grid, rng, size, modes.shape,
                                                  n_bumps, complex_amp=True))


def random_w_profile(grid: RadialGrid, rng, size=None):
    """Real compactly supported scalar profile of three bumps and its radial
    derivative; ``size`` as for ``random_stream``."""
    return _bump_profile(grid, rng, size, (), 3, complex_amp=False)[:2]


# ---------------------------------------------------------------------------
# quadrature over [1, r_max] in the log variable


def _integ(grid: RadialGrid, vals):
    """int vals dr via trapezoid in x, over the last (node) axis."""
    return np.trapezoid(vals * grid.r, dx=grid.h, axis=-1)


def _unstack(*values):
    """Python scalars for one sample, the arrays themselves for a stack."""
    return [v.item() if np.ndim(v) == 0 else v for v in values]


# ---------------------------------------------------------------------------
# Hardy inequality


@dataclass(frozen=True)
class HardyResult:
    alpha: float
    lhs: float
    rhs: float
    ratio: float
    ok: bool


def hardy_check(grid: RadialGrid, w, dw, alpha: float) -> HardyResult:
    """Truncated weighted Hardy inequality for a profile with w(1) = 0:

        int_1^M |w|^2 r^(alpha-2) dr <= (4/(alpha-1)^2) int_1^M |w'|^2 r^alpha dr.

    Valid for alpha > 1 on profiles vanishing at r = 1 with enough decay for
    the outer boundary term to drop; the randomized suite guarantees both by
    compact support.
    """
    if alpha <= 1.0:
        raise ValueError("the weighted Hardy inequality needs alpha > 1")
    lhs = _integ(grid, np.abs(w) ** 2 * grid.r ** (alpha - 2.0))
    rhs = (4.0 / (alpha - 1.0) ** 2) * _integ(grid, np.abs(dw) ** 2 * grid.r ** alpha)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(rhs > 0, lhs / rhs, np.inf)
    ok = lhs <= rhs + 1e-12 * np.maximum(lhs, rhs)
    return HardyResult(alpha, *_unstack(lhs, rhs, ratio, ok))


def hardy_sharpness() -> HardyResult:
    """Ratio achieved by the near-extremal family r^(sigma+eps) - r^(sigma-eps).

    sigma = (1 - alpha)/2 balances the two sides exactly in the untruncated
    limit; a smooth cosine-squared ramp to zero over the last 35% of the
    log range keeps the profile admissible.  The ratio approaches 1 as the
    support lengthens (about 0.94 for alpha = 2 up to r = 1e13).
    """
    alpha, eps = 2.0, 0.01
    grid = build_grid(1e13, 24)
    x = grid.log_r
    big_l = x[-1]
    x0 = 0.65 * big_l
    span = big_l - x0
    u = np.clip((x - x0) / span, 0.0, 1.0)
    chi = np.cos(0.5 * np.pi * u) ** 2
    dchi = np.where((x > x0) & (x < big_l),
                    -np.sin(np.pi * u) * (0.5 * np.pi / span), 0.0)

    sigma = 0.5 * (1.0 - alpha)
    core = np.exp(sigma * x) * 2.0 * np.sinh(eps * x)
    dcore = np.exp(sigma * x) * (2.0 * sigma * np.sinh(eps * x)
                                 + 2.0 * eps * np.cosh(eps * x))
    w = core * chi
    dw = (dcore * chi + core * dchi) / grid.r   # d/dr = (d/dx)/r
    return hardy_check(grid, w, dw, alpha)


# ---------------------------------------------------------------------------
# positivity factor of the mean-mode absorption


def positivity_factor(alpha: float, phi0: float) -> float:
    """1 - (4/(alpha-1)^2) [ (phi0 - 1) - (phi0 + 1 - alpha)(alpha - 1)/2 ].

    Positive exactly for alpha in (3, 2 phi0 - 1), the window in which the
    mean-mode transport terms are absorbed by the Hardy side.
    """
    return 1.0 - (4.0 / (alpha - 1.0) ** 2) * (
        (phi0 - 1.0) - (phi0 + 1.0 - alpha) * (alpha - 1.0) / 2.0)


def positivity_roots(phi0: float):
    """Sign-change locations of positivity_factor(., phi0) in (1.05, 30):
    brackets from 4000 samples, all bisected together to 1e-12."""
    a = np.linspace(1.05, 30.0, 4000)
    vals = positivity_factor(a, phi0)
    hits = np.flatnonzero((vals[:-1] == 0.0) | (vals[:-1] * vals[1:] < 0.0))
    lo, hi = a[hits], a[hits + 1]
    negative = vals[hits] < 0.0
    while np.any(hi - lo > 1e-12):
        mid = 0.5 * (lo + hi)
        same = (positivity_factor(mid, phi0) < 0.0) == negative
        lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
    return np.where(vals[hits] == 0.0, a[hits], 0.5 * (lo + hi)).tolist()


# ---------------------------------------------------------------------------
# quadratic forms of the mode split


@dataclass(frozen=True)
class QFormResult:
    phi0: float
    q_plus: float
    q_1: float
    q_sup1: float
    lower_bound: float
    gradient_norm: float   # ||grad of the |k|>=2 velocity part||^2
    weighted_norm: float   # ||that part / r||^2
    c_measured: float
    scale: float


def q_form(stream: TestStream, phi0: float) -> QFormResult:
    """Evaluate Q_plus, Q_1 (simplified display), and the |k| >= 2 bound.

    All quadratures carry the 2 pi angular factor and the factor 2 from the
    +-k conjugate pair.  Q_sup1 is the difference Q_plus - Q_1, so the
    decomposition identity is exact by construction and the content of the
    result is in the inequalities:  Q_1 >= 0 (pointwise-nonnegative
    integrand for phi0 <= 3) and Q_sup1 >= lower_bound with

        lower_bound = 4 pi sum_{k>=2} int [ (k^4 + k^2)/4 |phi_k|^2/r^4
                        + (k^2 + 2) |phi_k'|^2/r^2 + |phi_k''|^2 ] r dr.
    """
    grid = stream.grid
    r = grid.r
    four_pi = 4.0 * np.pi
    high = stream.modes >= 2
    one = ~high
    k = stream.modes.astype(float)[:, None]
    phi, dphi, d2phi = stream.phi, stream.dphi, stream.d2phi
    d_phi_over_r = dphi / r - phi / (r * r)
    grad_int = (2.0 * k * k * np.abs(d_phi_over_r) ** 2
                + np.abs(d2phi) ** 2
                + np.abs(k * k * phi / (r * r) - dphi / r) ** 2)
    sign_int = k * k * np.abs(phi) ** 2 / r ** 4 - np.abs(dphi) ** 2 / (r * r)
    grad = _integ(grid, grad_int * r)
    q_plus = (four_pi * (grad + phi0 * _integ(grid, sign_int * r))).sum(-1)
    q_1 = (four_pi * _integ(
        grid, ((3.0 - phi0) * np.abs(d_phi_over_r[..., one, :]) ** 2
               + np.abs(d2phi[..., one, :]) ** 2) * r)).sum(-1)
    kh = k[high, 0]
    a_k = _integ(grid, np.abs(dphi[..., high, :]) ** 2 / r)
    b_k = _integ(grid, np.abs(phi[..., high, :]) ** 2 / r ** 3)
    c_k = _integ(grid, np.abs(d2phi[..., high, :]) ** 2 * r)
    bound = (four_pi * ((kh ** 4 + kh ** 2) / 4.0 * b_k
                        + (kh * kh + 2.0) * a_k + c_k)).sum(-1)
    grad2 = (four_pi * grad[..., high]).sum(-1)
    wnorm = (four_pi * (a_k + kh * kh * b_k)).sum(-1)
    q_sup1 = q_plus - q_1
    denom = grad2 + wnorm
    c = q_sup1 / np.where(denom > 0, denom, np.nan)
    scale = np.maximum(np.maximum(np.abs(q_plus), np.abs(bound)),
                       np.maximum(denom, 1e-300))
    return QFormResult(phi0, *_unstack(q_plus, q_1, q_sup1, bound, grad2,
                                       wnorm, c, scale))


def poincare_wirtinger_check(stream: TestStream):
    """Node-wise mode inequalities for the |k| >= 2 part:

        sum k^4 |phi_k|^2 >= 4 sum k^2 |phi_k|^2,
        sum k^2 |phi_k'|^2 >= 4 sum |phi_k'|^2,

    both termwise consequences of k^2 >= 4.  Returns the worst signed margin
    (negative would be a violation) relative to the local scale; 0 when
    the stream has no such mode.
    """
    sel = stream.modes >= 2
    k2 = (stream.modes[sel].astype(float) ** 2)[:, None]
    p2 = np.abs(stream.phi[..., sel, :]) ** 2
    dp2 = np.abs(stream.dphi[..., sel, :]) ** 2
    m1 = (k2 * k2 * p2 - 4.0 * k2 * p2).sum(axis=-2)
    m2 = (k2 * dp2 - 4.0 * dp2).sum(axis=-2)
    top = np.maximum((k2 * k2 * p2).sum(axis=-2), (k2 * dp2).sum(axis=-2))
    scale = np.maximum(top.max(axis=-1), 1e-300)
    return _unstack(np.minimum(m1.min(axis=-1), m2.min(axis=-1)) / scale)[0]


@dataclass(frozen=True)
class Q1Probe:
    phi0: float
    n_samples: int
    min_value: float
    found_negative: bool
    verdict: str


def probe_q1_negativity(phi0: float, n_samples: int = 10000,
                        seed: int = 0) -> Q1Probe:
    """Random search for a k = 1 stream making Q_1 negative.

    In the log variable Q_1 is 4 pi int [(4 - phi0) u'^2 + u''^2] dx for
    u = phi/r, so no sample can be negative for phi0 <= 4 and the expected
    verdict up there is "inconclusive"; the probe exists to report the
    margin honestly rather than assert an impossibility.  The search stops
    at the stack holding the first negative sample; ``min_value`` and
    ``n_samples`` cover the samples up to and including it.
    """
    rng = np.random.default_rng(seed)
    grid = build_grid(1e4, 16)
    best = np.inf
    found = False
    seen = 0
    for size in _stacks(int(n_samples)):
        res = q_form(random_stream(grid, rng, modes=(1,), n_bumps=3,
                                   size=size), phi0)
        rel = res.q_1 / res.scale
        negative = np.flatnonzero(res.q_1 < -1e-12 * res.scale)
        if negative.size:
            best = min(best, float(rel[:negative[0] + 1].min()))
            seen += int(negative[0]) + 1
            found = True
            break
        best = min(best, float(rel.min()))
        seen += size
    verdict = "negative-found" if found else "inconclusive"
    return Q1Probe(phi0=phi0, n_samples=seen, min_value=best,
                   found_negative=found, verdict=verdict)
