"""Sharp constants of the quadratic forms behind the uniqueness argument.

The difference of two solutions is a velocity field with stream modes
phi_k; splitting it into the |k| = 1 part and the rest, the energy identity
bounds the nonlinear terms by a weighted Dirichlet form

    Q_plus(phi) = ||grad v||^2
                  + phi0 * sum_k int (k^2 |phi_k|^2 / r^4 - |phi_k'|^2 / r^2) r dr,

(2 pi and conjugate-pair factors included), whose |k| = 1 part integrates by
parts to the manifestly nonnegative

    Q_1 = 2 pi sum_{k=+-1} int [ (3 - phi0) |d_r(phi_k/r)|^2 + |phi_k''|^2 ] r dr

for phi0 <= 3, while the |k| >= 2 remainder Q_sup1 = Q_plus - Q_1 dominates
a fixed fraction of the gradient-plus-weighted norm of that part.

In x = log r on [0, L = ln r_max], with psi = phi/r (w = r^-beta v for the
Hardy inequality), the forms are constant-coefficient sums of M0 = int v^2,
M1 = int v'^2, M2 = int v''^2 dx on clamped profiles: their sharp constants
are extreme eigenvalues of finite-difference pencils, matched to closed
forms (Hardy, Littlewood and Polya, *Inequalities*, 1934) and to samples
(random bump streams, stacked on leading axes), none of which may beat them.
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
    "probe_q1_negativity",
]

# (r_max, nodes per decade) of the sharp constants and their cross-check.
_SHARP_GRID = (1e4, 16)


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
# quadrature over [1, r_max] in the log variable, and its matrices


def _integ(grid: RadialGrid, vals):
    """int vals dr via trapezoid in x, over the last (node) axis."""
    return np.trapezoid(vals * grid.r, dx=grid.h, axis=-1)


def _unstack(*values):
    """Python scalars for one sample, the arrays themselves for a stack."""
    return [v.item() if np.ndim(v) == 0 else v for v in values]


def _sharp_forms():
    """M0 = int v^2, M1 = int v'^2 and M2 = int v''^2 dx on the sharp grid's
    interior nodes, v = 0 at both ends: trapezoid sums of differences, for M2
    with mirror ghost nodes that also clamp v' = 0 there."""
    grid = build_grid(*_SHARP_GRID)
    n, h = grid.n_nodes - 2, grid.h
    d = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    d2 = d @ d
    d2[[0, -1], [0, -1]] += 2.0
    return h * np.eye(n), d / h, d2 / h ** 3


def _extreme_eigenvalues(a, b):
    """Least and largest eigenvalues of the symmetric pencils a - lambda b
    (b = C C^T positive definite; leading axes stack them) via C^-1 a C^-T."""
    inv = np.linalg.inv(np.linalg.cholesky(b))
    lam = np.linalg.eigvalsh(inv @ a @ np.swapaxes(inv, -1, -2))
    return lam[..., 0], lam[..., -1]


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
    the outer boundary term to drop; the bump profiles guarantee both by
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


def hardy_sharpness():
    """{alpha: (closed form, eigenvalue)} of the best ``hardy_check`` ratio
    for alpha = 1.5, 2 and 3.  With w = r^-beta v, beta = (alpha - 1)/2, the
    sides are int v^2 dx and (int v'^2 + beta^2 v^2 dx) / beta^2, so the
    ratio is the largest eigenvalue of (beta^2 M0, M1 + beta^2 M0), in the
    continuum beta^2 / (beta^2 + (pi/L)^2), attained at v = sin(pi x / L)."""
    m0, m1, _ = _sharp_forms()
    alphas = (1.5, 2.0, 3.0)
    b2 = (0.5 * (np.array(alphas) - 1.0))[:, None, None] ** 2
    eig = _extreme_eigenvalues(b2 * m0, m1 + b2 * m0)[1]
    closed = (b2 / (b2 + (np.pi / np.log(_SHARP_GRID[0])) ** 2)).ravel()
    return dict(zip(alphas, zip(closed.tolist(), eig.tolist())))


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
    """Sorted zeros of positivity_factor(., phi0) on alpha > 1: it equals
    -(a - 2)(a + 2 - 2 phi0) / a^2, a = alpha - 1 (double at phi0 = 2)."""
    return sorted(float(a) for a in {3.0, 2.0 * phi0 - 1.0} if a > 1.0)


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


def _q_pencils(phi0, k):
    """Matrices in psi = phi/r of the mode pairs k (leading axes), over
    4 pi: Q_plus = gradient + phi0 sign, and gradient + weighted.  With
    r d_r = d/dx, ``q_form``'s integrands times r dr = r^2 dx are these, and
    their cross terms integrate to end values, which vanish:

        gradient:  2 k^2 psi'^2 + (psi' + psi'')^2 + ((k^2 - 1) psi - psi')^2,
        sign:      k^2 psi^2 - (psi + psi')^2,
        weighted:  (psi + psi')^2 + k^2 psi^2    (a_k + k^2 b_k).
    """
    m0, m1, m2 = _sharp_forms()
    k2 = np.asarray(k, float)[..., None, None] ** 2
    grad = m2 + (2.0 * k2 + 2.0) * m1 + (k2 - 1.0) ** 2 * m0
    return grad + phi0 * ((k2 - 1.0) * m0 - m1), grad + m1 + (k2 + 1.0) * m0


def _high_mode_eigenvalues(phi0s):
    """Least ``q_form`` c_measured of each mode k = 2..5 alone, shape
    (phi0s, 4); Q is diagonal in the modes, so a row's least is the infimum."""
    q_plus, norm = _q_pencils(np.array(phi0s)[:, None, None, None],
                              (2, 3, 4, 5))
    return _extreme_eigenvalues(q_plus, norm)[0]


def probe_q1_negativity(phi0: float):
    """(closed form, least eigenvalue) of Q_1 / (4 pi int psi'^2 dx) over
    k = 1 streams.  Q_1 = 4 pi int (4 - phi0) psi'^2 + psi''^2 dx by parts,
    and clamped psi have int psi''^2 >= (2 pi/L)^2 int psi'^2, with equality
    at 1 - cos(2 pi x / L): Q_1 < 0 for some stream iff phi0 > 4 + (2 pi/L)^2.
    """
    least = _extreme_eigenvalues(_q_pencils(phi0, 1)[0], _sharp_forms()[1])[0]
    return (4.0 - phi0 + (2.0 * np.pi / np.log(_SHARP_GRID[0])) ** 2,
            float(least))
