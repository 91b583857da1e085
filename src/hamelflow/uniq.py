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
in the continuum identities vanishes identically.
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


# ---------------------------------------------------------------------------
# compactly supported test data


def _bump(u):
    """C^3 bump (1-u^2)^4 on |u| < 1 with its first two derivatives."""
    inside = np.abs(u) < 1.0
    v = np.where(inside, 1.0 - u * u, 0.0)
    b = v ** 4
    db = np.where(inside, -8.0 * u * v ** 3, 0.0)
    d2b = np.where(inside, -8.0 * v ** 3 + 48.0 * u * u * v ** 2, 0.0)
    return b, db, d2b


def _bump_profile(grid: RadialGrid, rng, n_bumps: int, complex_amp: bool):
    """Sum of interior bumps in x = log r: (phi, d_r phi, d_rr phi)."""
    x = grid.log_r
    big_l = x[-1]
    phi = np.zeros(grid.n_nodes, dtype=complex)
    dphi_x = np.zeros_like(phi)
    d2phi_x = np.zeros_like(phi)
    for _ in range(n_bumps):
        c = rng.uniform(0.2 * big_l, 0.8 * big_l)
        half = min(c - 0.05 * big_l, 0.95 * big_l - c, 0.3 * big_l)
        width = rng.uniform(0.3 * half, half)
        amp = rng.normal() + (1j * rng.normal() if complex_amp else 0.0)
        u = (x - c) / width
        b, db, d2b = _bump(u)
        phi += amp * b
        dphi_x += amp * db / width
        d2phi_x += amp * d2b / width ** 2
    r = grid.r
    return phi, dphi_x / r, (d2phi_x - dphi_x) / (r * r)


@dataclass(frozen=True)
class TestStream:
    """Stream modes phi_k (k >= 1 rows) with analytic radial derivatives."""

    grid: RadialGrid
    modes: np.ndarray     # the k values, each >= 1
    phi: np.ndarray       # (len(modes), n_nodes)
    dphi: np.ndarray
    d2phi: np.ndarray


def random_stream(grid: RadialGrid, rng, modes=(1, 2, 3, 4, 5),
                  n_bumps: int = 2, complex_amp: bool = True) -> TestStream:
    modes = np.asarray(sorted(set(int(k) for k in modes)))
    if np.any(modes < 1):
        raise ValueError("stream modes must be >= 1")
    rows = [_bump_profile(grid, rng, n_bumps, complex_amp) for _ in modes]
    return TestStream(grid=grid, modes=modes,
                      phi=np.stack([r[0] for r in rows]),
                      dphi=np.stack([r[1] for r in rows]),
                      d2phi=np.stack([r[2] for r in rows]))


def random_w_profile(grid: RadialGrid, rng, n_bumps: int = 3):
    """Real compactly supported scalar profile and its radial derivative."""
    phi, dphi, _ = _bump_profile(grid, rng, n_bumps, complex_amp=False)
    return phi.real, dphi.real


# ---------------------------------------------------------------------------
# quadrature over [1, r_max] in the log variable


def _integ(grid: RadialGrid, vals) -> float:
    """int vals dr via trapezoid in x (vals sampled on the grid)."""
    return float(np.trapezoid(np.asarray(vals) * grid.r, dx=grid.h))


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
    w = np.asarray(w)
    dw = np.asarray(dw)
    lhs = _integ(grid, np.abs(w) ** 2 * grid.r ** (alpha - 2.0))
    rhs = (4.0 / (alpha - 1.0) ** 2) * _integ(grid, np.abs(dw) ** 2 * grid.r ** alpha)
    scale = max(lhs, rhs, 1e-300)
    ratio = lhs / rhs if rhs > 0 else np.inf
    return HardyResult(alpha=alpha, lhs=lhs, rhs=rhs, ratio=ratio,
                       ok=lhs <= rhs + 1e-12 * scale)


def hardy_sharpness(alpha: float = 2.0, r_max: float = 1e13,
                    nodes_per_decade: int = 24, eps: float = 0.01,
                    ramp_start: float = 0.65) -> HardyResult:
    """Ratio achieved by the near-extremal family r^(sigma+eps) - r^(sigma-eps).

    sigma = (1 - alpha)/2 balances the two sides exactly in the untruncated
    limit; a smooth cosine-squared ramp to zero over the last stretch of the
    log range keeps the profile admissible.  The ratio approaches 1 as the
    support lengthens (about 0.95 with the defaults).
    """
    grid = build_grid(r_max, nodes_per_decade)
    x = grid.log_r
    big_l = x[-1]
    x0 = ramp_start * big_l
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


def positivity_roots(phi0: float, lo: float = 1.05, hi: float = 30.0,
                     samples: int = 4000):
    """Sign-change locations of positivity_factor(., phi0) in (lo, hi)."""
    grid_a = np.linspace(lo, hi, samples)
    vals = positivity_factor(grid_a, phi0)
    roots = []
    for a0, a1, v0, v1 in zip(grid_a, grid_a[1:], vals, vals[1:]):
        if v0 == 0.0:
            roots.append(float(a0))
        elif v0 * v1 < 0.0:
            roots.append(_bisect(lambda a: positivity_factor(a, phi0),
                                 float(a0), float(a1)))
    return roots


def _bisect(fun, a: float, b: float, xtol: float = 1e-12) -> float:
    """Root of fun in [a, b], where fun(a) and fun(b) differ in sign."""
    negative = fun(a) < 0.0
    while b - a > xtol:
        mid = 0.5 * (a + b)
        value = fun(mid)
        if value == 0.0:
            return mid
        if (value < 0.0) == negative:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


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
    q_plus = 0.0
    q_1 = 0.0
    bound = 0.0
    grad2 = 0.0
    wnorm = 0.0
    for row, k in enumerate(stream.modes):
        k = float(k)
        phi = stream.phi[row]
        dphi = stream.dphi[row]
        d2phi = stream.d2phi[row]
        d_phi_over_r = dphi / r - phi / (r * r)
        grad_int = (2.0 * k * k * np.abs(d_phi_over_r) ** 2
                    + np.abs(d2phi) ** 2
                    + np.abs(k * k * phi / (r * r) - dphi / r) ** 2)
        sign_int = k * k * np.abs(phi) ** 2 / r ** 4 - np.abs(dphi) ** 2 / (r * r)
        pair_q = four_pi * (_integ(grid, grad_int * r)
                            + phi0 * _integ(grid, sign_int * r))
        q_plus += pair_q
        if k == 1.0:
            q_1 += four_pi * _integ(
                grid, ((3.0 - phi0) * np.abs(d_phi_over_r) ** 2
                       + np.abs(d2phi) ** 2) * r)
        else:
            a_k = _integ(grid, np.abs(dphi) ** 2 / r)
            b_k = _integ(grid, np.abs(phi) ** 2 / r ** 3)
            c_k = _integ(grid, np.abs(d2phi) ** 2 * r)
            bound += four_pi * ((k ** 4 + k ** 2) / 4.0 * b_k
                                + (k * k + 2.0) * a_k + c_k)
            grad2 += four_pi * _integ(grid, grad_int * r)
            wnorm += four_pi * (a_k + k * k * b_k)
    q_sup1 = q_plus - q_1
    denom = grad2 + wnorm
    c = q_sup1 / denom if denom > 0 else float("nan")
    scale = max(abs(q_plus), abs(bound), denom, 1e-300)
    return QFormResult(phi0=phi0, q_plus=q_plus, q_1=q_1, q_sup1=q_sup1,
                       lower_bound=bound, gradient_norm=grad2,
                       weighted_norm=wnorm, c_measured=c, scale=scale)


def poincare_wirtinger_check(stream: TestStream):
    """Node-wise mode inequalities for the |k| >= 2 part:

        sum k^4 |phi_k|^2 >= 4 sum k^2 |phi_k|^2,
        sum k^2 |phi_k'|^2 >= 4 sum |phi_k'|^2,

    both termwise consequences of k^2 >= 4.  Returns the worst signed margin
    (negative would be a violation) relative to the local scale.
    """
    sel = stream.modes >= 2
    if not np.any(sel):
        return 0.0
    k2 = (stream.modes[sel].astype(float) ** 2)[:, None]
    p2 = np.abs(stream.phi[sel]) ** 2
    dp2 = np.abs(stream.dphi[sel]) ** 2
    m1 = (k2 * k2 * p2 - 4.0 * k2 * p2).sum(axis=0)
    m2 = (k2 * dp2 - 4.0 * dp2).sum(axis=0)
    scale = max(float((k2 * k2 * p2).sum(axis=0).max()),
                float((k2 * dp2).sum(axis=0).max()), 1e-300)
    return float(min(m1.min(), m2.min())) / scale


@dataclass(frozen=True)
class Q1Probe:
    phi0: float
    n_samples: int
    min_value: float
    found_negative: bool
    verdict: str


def probe_q1_negativity(phi0: float, n_samples: int = 10000,
                        seed: int = 0, r_max: float = 1e4,
                        nodes_per_decade: int = 16) -> Q1Probe:
    """Random search for a k = 1 stream making Q_1 negative.

    In the log variable Q_1 is 4 pi int [(4 - phi0) u'^2 + u''^2] dx for
    u = phi/r, so no sample can be negative for phi0 <= 4 and the expected
    verdict up there is "inconclusive"; the probe exists to report the
    margin honestly rather than assert an impossibility.
    """
    rng = np.random.default_rng(seed)
    grid = build_grid(r_max, nodes_per_decade)
    best = np.inf
    found = False
    for _ in range(int(n_samples)):
        stream = random_stream(grid, rng, modes=(1,), n_bumps=3)
        res = q_form(stream, phi0)
        rel = res.q_1 / res.scale
        best = min(best, rel)
        if res.q_1 < -1e-12 * res.scale:
            found = True
            break
    verdict = "negative-found" if found else "inconclusive"
    return Q1Probe(phi0=phi0, n_samples=int(n_samples), min_value=best,
                   found_negative=found, verdict=verdict)
