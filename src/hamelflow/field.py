"""Physical-space reconstruction and a posteriori diagnostics.

Every check here is deliberately independent of the quadrature that built
the solution: radial derivatives are re-formed with 5-point fourth-order
stencils in the log variable (error ~ (z h)^4 / 90 on r^z), the advection
sources are re-evaluated from the stored modes, and the residual of the
vorticity transport equation is normalized by the largest individual term
so that a perfect zero field scores 0 rather than 0/0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flows import alpha_window, zeta_pair
from .linear import SpectralSolution, SourceSpectrum
from .nonlin import compute_sources

__all__ = [
    "PhysicalField",
    "log_derivatives",
    "interior",
    "derivative_consistency",
    "mode_ode_residuals",
    "ns_residual",
    "reconstruct",
    "CirculationFit",
    "asymptotic_circulation",
    "DecayProfile",
    "decay_fit",
]


@dataclass(frozen=True)
class PhysicalField:
    r: np.ndarray
    theta: np.ndarray
    ur: np.ndarray      # (n_r, n_theta)
    utheta: np.ndarray
    w: np.ndarray


def log_derivatives(grid, rows):
    """Fourth-order (d_x, d_xx) of mode rows on the log grid.

    Both arrays cover the interior nodes only (see ``interior``), where the
    5-point stencils are centered.
    """
    a = np.atleast_2d(np.asarray(rows))
    h = grid.h
    d1 = (-a[:, 4:] + 8.0 * a[:, 3:-1] - 8.0 * a[:, 1:-3] + a[:, :-4]) / (12.0 * h)
    d2 = (-a[:, 4:] + 16.0 * a[:, 3:-1] - 30.0 * a[:, 2:-2]
          + 16.0 * a[:, 1:-3] - a[:, :-4]) / (12.0 * h * h)
    return d1, d2


def interior(grid) -> slice:
    """Nodes where the fourth-order stencils are centered."""
    return slice(2, grid.n_nodes - 2)


def _fd_radial(grid, rows):
    """(d_r, d_rr) from values alone, fourth order, on the interior."""
    d1x, d2x = log_derivatives(grid, rows)
    r = grid.r[interior(grid)]
    return d1x / r, (d2x - d1x) / (r * r)


def derivative_consistency(solution: SpectralSolution) -> float:
    """Sup relative mismatch between stored d_r arrays and FD of the values."""
    grid = solution.grid
    c = interior(grid)
    worst = 0.0
    for vals, ders in ((solution.gamma, solution.dgamma),
                       (solution.w, solution.dw)):
        fd1, _ = _fd_radial(grid, vals)
        scale = np.abs(ders[:, c]).max()
        if scale == 0.0:
            continue
        worst = max(worst, float(np.abs(fd1 - ders[:, c]).max() / scale))
    return worst


def _relative(terms):
    """Largest |sum of terms| over the largest single term, 0 if all vanish."""
    scale = max(float(np.abs(t).max()) for t in terms)
    return float(np.abs(sum(terms)).max()) / scale if scale > 0 else 0.0


def _stream_residual(solution: SpectralSolution) -> float:
    """Delta_n gamma_n + w_n, sup-normalized term-wise (see
    ``mode_ode_residuals``)."""
    grid = solution.grid
    c = interior(grid)
    r = grid.r[c]
    g1, g2 = _fd_radial(grid, solution.gamma)
    n = np.arange(solution.n_max + 1)[:, None]
    return _relative((g2, g1 / r, -(n * n) * solution.gamma[:, c] / r**2,
                      solution.w[:, c]))


def _vorticity_residual(solution: SpectralSolution, F) -> float:
    """L_w w_n - F_n, sup-normalized term-wise (see ``mode_ode_residuals``)."""
    grid = solution.grid
    flow = solution.flow
    c = interior(grid)
    r = grid.r[c]
    w1, w2 = _fd_radial(grid, solution.w)
    n = np.arange(solution.n_max + 1)[:, None]
    lam = 1j * n * flow.mu + n * n
    return _relative((w2, (flow.phi0 + 1.0) * w1 / r,
                      -lam * solution.w[:, c] / r**2, -F[:, c]))


def mode_ode_residuals(solution: SpectralSolution,
                       sources: SourceSpectrum | None = None):
    """(stream_residual, vorticity_residual), sup-normalized term-wise.

    The stream equation is checked as Delta_n gamma_n + w_n = 0 and the
    transport equation as L_w w_n - F_n = 0, with F the supplied sources
    (zeros when omitted).  Each residual is divided by the largest single
    term appearing anywhere in its equation family; each term is formed on
    the whole (modes, interior) stack.
    """
    if sources is None:
        F = np.zeros_like(solution.w)
    else:
        if sources.n_max != solution.n_max:
            raise ValueError("source rows do not match the solution")
        F = sources.F
    return _stream_residual(solution), _vorticity_residual(solution, F)


def ns_residual(solution: SpectralSolution) -> float:
    """Residual of the full vorticity transport with self-generated sources.

    Fourth-order FD derivatives are substituted into
    L_w w = (advection of w by the perturbation) mode by mode; the sources
    are recomputed from the stored solution, so a converged fixed point is
    checked end to end.  Returns the vorticity-equation residual, the only
    half of ``mode_ode_residuals`` it forms.
    """
    return _vorticity_residual(solution, compute_sources(solution).F)


def reconstruct(solution: SpectralSolution, n_theta: int | None = None) -> PhysicalField:
    """Sample (u_r, u_theta, w) on the polar grid nodes x equispaced angles.

    Modes 1..n_max enter each field as one real matrix product: the real
    part of sum_n row_n 2 e^{i n theta} is [Re rows, -Im rows] times the
    table of 2 cos(n theta) over 2 sin(n theta).  The product is stacked
    over the nodes, one (1, 2 n_max) row per node, so that each BLAS call
    stays below the size at which OpenBLAS starts threads: a threaded
    (nodes, 2 n_max) product at 385 nodes and 128 angles took 8 ms instead
    of 0.07 ms on a shared two-core host, whenever its worker thread had
    to wait for a core.
    """
    n_max = solution.n_max
    if n_theta is None:
        n_theta = max(64, 4 * n_max)
    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    r = solution.grid.r[:, None]
    flow = solution.flow
    n = np.arange(1, n_max + 1)
    angles = np.outer(n, theta)
    table = 2.0 * np.concatenate([np.cos(angles), np.sin(angles)])
    modes = lambda rows: (np.concatenate([rows.real, -rows.imag]).T[:, None]
                          @ table)[:, 0]

    ur = -flow.phi0 / r + modes(1j * n[:, None] * solution.gamma[1:] / r.T)
    ut = (flow.mu / r - np.real(solution.dgamma[0])[:, None]
          - modes(solution.dgamma[1:]))
    wf = np.real(solution.w[0])[:, None] + modes(solution.w[1:])
    return PhysicalField(r=solution.grid.r, theta=theta, ur=ur, utheta=ut, w=wf)


_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def _golden_min(fun, lo: float, hi: float, xatol: float = 1e-8) -> float:
    """Local minimizer of a scalar function on [lo, hi], golden-section search."""
    c, d = hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)
    fc, fd = fun(c), fun(d)
    while hi - lo > xatol:
        if fc <= fd:
            hi, d, fd = d, c, fc
            c = hi - _GOLDEN * (hi - lo)
            fc = fun(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _GOLDEN * (hi - lo)
            fd = fun(d)
    return float(c if fc <= fd else d)


@dataclass(frozen=True)
class CirculationFit:
    mu_effective: float  # extrapolated circulation r u_theta mean at infinity
    decay_exponent: float
    amplitude: float
    rms: float


def asymptotic_circulation(solution: SpectralSolution) -> CirculationFit:
    """Fit mu_eff + c r^{-q} to the mean swirl moment y(r) = mu - r d_r gamma_0.

    y is the circulation carried at radius r; for phi0 > 2 it tends to a
    limit generally different from both mu and mu0.  Constant samples are
    returned exactly without invoking the fit.  Each step of the search
    over q fits y ~ a + b x, x = r^{-q}, in closed form: x is divided by
    its largest value, so that no r_max underflows its sums, and centred,
    b = sum dx dy / sum dx^2 and a = mean y - b mean x.  The residual sum
    of squares is summed from the residuals: sum dy^2 - b sum dx dy would
    cancel to the rounding of sum dy^2 on a close fit.
    """
    grid = solution.grid
    mask = grid.r >= grid.r_max / 100.0
    r = grid.r[mask]
    y = solution.flow.mu - r * np.real(solution.dgamma[0])[mask]
    mean = float(np.mean(y))
    spread = float(np.max(np.abs(y - mean)))
    if spread <= 1e-12 * max(1.0, abs(mean)):
        return CirculationFit(mu_effective=mean, decay_exponent=float("inf"),
                              amplitude=0.0, rms=0.0)

    rel = r / r[0]          # x / max x = rel^{-q}
    dy = y - mean

    def residual(q):
        x = rel ** (-q)
        x_mean = np.mean(x)
        dx = x - x_mean
        slope = float(np.dot(dx, dy)) / float(np.dot(dx, dx))
        res = dy - slope * dx
        return float(np.dot(res, res)), mean - slope * x_mean, slope

    q = _golden_min(lambda q: residual(q)[0], 0.05, 8.0)
    rss, a, slope = residual(q)
    return CirculationFit(mu_effective=float(a),
                          decay_exponent=q,
                          amplitude=float(slope * r[0] ** q),
                          rms=float(np.sqrt(rss / r.size)))


@dataclass(frozen=True)
class DecayProfile:
    gamma_slopes: np.ndarray     # nan where the mode is inactive
    w_slopes: np.ndarray
    gamma_ceilings: np.ndarray
    w_ceilings: np.ndarray
    beta0: float                 # slowest stream decay rate over n >= 1
    beta1: float                 # decay rate of the n = 1 stream mode
    beta_sup1: float             # slowest stream decay rate over n >= 2


def _fit_slopes(r, mags):
    """Least-squares slope of log mags against log r, one per row of the
    (rows, len(r)) magnitudes, over each row's nonzero samples: nan for a
    row with fewer than 5 of them."""
    usable = mags > 0.0
    count = usable.sum(axis=1)
    x = np.where(usable, np.log(r), 0.0)
    y = np.log(np.where(usable, mags, 1.0))
    with np.errstate(invalid="ignore"):    # rows without a sample
        dx = np.where(usable, x - (x.sum(axis=1) / count)[:, None], 0.0)
        dy = y - (y.sum(axis=1) / count)[:, None]
        slopes = (dx * dy).sum(axis=1) / (dx * dx).sum(axis=1)
    return np.where(count >= 5, slopes, np.nan)


def decay_fit(solution: SpectralSolution) -> DecayProfile:
    """Log-log slope of every active mode over the last two decades.

    The ceiling columns give the slowest decay the construction admits:
    max(-|n|, Re zeta_n^- + 2, -2 alpha) for the stream modes and
    max(Re zeta_n^-, -2 - 2 alpha) for vorticity (mean mode: the phi0-driven
    exponents).  A fitted slope above its ceiling by more than fit noise
    indicates an assembly defect.
    """
    grid = solution.grid
    flow = solution.flow
    alpha, _ = alpha_window(flow.phi0, flow.mu)
    lo = grid.r_max / 100.0
    n_all = np.arange(solution.n_max + 1)
    # the mean mode carries its homogeneous exponent zeta_0^- = -phi0 only
    # when phi0 > 2, and no -|n| stream decay
    zm = zeta_pair(flow.phi0, flow.mu, n_all)[1].real
    homogeneous = (n_all > 0) | (flow.phi0 > 2.0)
    g_ceil = np.maximum(np.where(homogeneous, zm + 2.0, -np.inf), -2.0 * alpha)
    g_ceil[1:] = np.maximum(g_ceil[1:], -n_all[1:])
    w_ceil = np.maximum(np.where(homogeneous, zm, -np.inf), -2.0 - 2.0 * alpha)

    # one fit over the last two decades of every active mode of both fields
    mags = np.abs(np.concatenate([solution.gamma, solution.w]))
    mags = mags.reshape(2, n_all.size, -1)
    peak = mags.max(axis=2)
    live = peak > 1e-13 * peak.max(axis=1, keepdims=True)
    tail = grid.r >= lo
    slopes = np.full(peak.shape, np.nan)
    slopes[live] = _fit_slopes(grid.r[tail], mags[:, :, tail][live])
    g_slopes, w_slopes = slopes

    active = ~np.isnan(g_slopes[1:])
    betas = -g_slopes[1:][active]
    beta0 = float(betas.min()) if betas.size else float("nan")
    beta1 = float(-g_slopes[1]) if n_all.size > 1 else float("nan")
    sup1 = -g_slopes[2:][~np.isnan(g_slopes[2:])]
    beta_sup1 = float(sup1.min()) if sup1.size else float("nan")
    return DecayProfile(gamma_slopes=g_slopes, w_slopes=w_slopes,
                        gamma_ceilings=g_ceil, w_ceilings=w_ceil,
                        beta0=beta0, beta1=beta1, beta_sup1=beta_sup1)
