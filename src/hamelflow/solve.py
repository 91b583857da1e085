"""Picard iteration, circulation shooting, and branch sweeps.

The construction is a fixed point of X -> S(NL(X), trace): solve the linear
mode problems against the advection sources of the previous iterate.  For
boundary data small in the weighted trace norm the map contracts in

    ||X|| = sup_{n, r} r^alpha (1 + |n|)^4 |gamma_n(r)|,

with alpha inside the window (0, min(rho - 2, 1)) fixed by the flow.  For
phi0 <= 2 the mean mode carries no usable homogeneous solution, so the
circulation of the reference flow is itself an unknown: mu solves
g(mu) = mu0 + d_r gamma_{mu,0}(1) - mu = 0, iterated as a fixed point with a
secant fallback.  For phi0 > 2 every mu near mu0 is admissible and sweeping
mu against one physical trace exhibits the non-uniqueness branch.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .flows import ReferenceFlow, alpha_window
from .grid import BoundarySpectrum, RadialGrid, build_grid
from .linear import DegenerateFluxError, SpectralSolution, solve_linear
from .nonlin import compute_sources

__all__ = [
    "SolverConvergenceError",
    "SolverConfig",
    "SolveReport",
    "BranchMember",
    "picard_norm",
    "picard_solve",
    "fixed_point_residual",
    "shoot_mu",
    "branch_sweep",
]

MODE_WEIGHT_EXP = 4.0  # kappa in the contraction norm


class SolverConvergenceError(RuntimeError):
    """Iteration failed; carries the partial report for diagnosis.

    When a quadrature failure stopped the iteration, ``iteration`` is the
    Picard step it happened in (0 for the initial linear solve) and
    ``exponent`` the fitted tail exponent, if the failure had one.
    """

    def __init__(self, message, report=None, iteration=None, exponent=None):
        super().__init__(message)
        self.report = report
        self.iteration = iteration
        self.exponent = exponent


@dataclass(frozen=True)
class SolverConfig:
    n_modes: int = 16
    r_max: float = 1e4
    nodes_per_decade: int = 64
    tail_exponent_floor: float = -1.1
    tol_fp: float = 1e-12
    max_iter: int = 60
    relaxation: float = 1.0
    tol_mu: float = 1e-10
    max_shoot: int = 40
    resonance_tol: float = 1e-8

    def __post_init__(self):
        if not (0.0 < self.relaxation <= 1.0):
            raise ValueError("relaxation must lie in (0, 1]")
        if self.n_modes < 1:
            raise ValueError("need at least one nonzero mode")

    def make_grid(self) -> RadialGrid:
        return build_grid(self.r_max, self.nodes_per_decade,
                          self.tail_exponent_floor)


@dataclass
class SolveReport:
    converged: bool
    iterations: int
    increments: list
    contraction_ratio: float
    alpha: float
    alpha_feasible: bool
    mu: float
    mu0: float
    phi0: float
    mu_history: list = field(default_factory=list)
    shoot_residual: float = float("nan")
    warnings: list = field(default_factory=list)


def picard_norm(grid: RadialGrid, gamma_rows, alpha: float) -> float:
    """Contraction norm of stacked stream modes (rows n = 0..n_max)."""
    rows = np.atleast_2d(np.asarray(gamma_rows))
    n = np.arange(rows.shape[0], dtype=float)
    weights = grid.r ** alpha * ((1.0 + n) ** MODE_WEIGHT_EXP)[:, None]
    return float(np.max(weights * np.abs(rows)))


def _blend(x: SpectralSolution, y: SpectralSolution, omega: float) -> SpectralSolution:
    if omega == 1.0:
        return y
    mix = lambda a, b: (1.0 - omega) * a + omega * b
    return replace(y, gamma=mix(x.gamma, y.gamma), dgamma=mix(x.dgamma, y.dgamma),
                   w=mix(x.w, y.w), dw=mix(x.dw, y.dw),
                   gamma_bar=mix(x.gamma_bar, y.gamma_bar),
                   w_bar=mix(x.w_bar, y.w_bar))


def _contraction_ratio(increments) -> float:
    pairs = [(a, b) for a, b in zip(increments, increments[1:]) if a > 0.0]
    if not pairs:
        return 0.0
    return float(np.median([b / a for a, b in pairs]))


def picard_solve(flow: ReferenceFlow, boundary: BoundarySpectrum,
                 config: SolverConfig | None = None,
                 grid: RadialGrid | None = None):
    """Iterate the source-to-solution map to its fixed point.

    Returns (solution, report); raises SolverConvergenceError (with the
    report attached) when max_iter is exhausted or the iterate degenerates.
    """
    config = config or SolverConfig()
    grid = grid or config.make_grid()
    alpha, feasible = alpha_window(flow.phi0, flow.mu)
    warnings = []
    if not feasible:
        warnings.append(
            "decay rate rho <= 2: contraction window is empty, using "
            f"alpha={alpha:g} as a diagnostic weight only")

    increments = []
    converged = False
    iterations = 0

    def linear_step(sources):
        try:
            return solve_linear(flow, grid, boundary, sources,
                                resonance_tol=config.resonance_tol)
        except ArithmeticError as exc:
            report = _report(False, iterations, increments, alpha, feasible,
                             flow, boundary, warnings)
            raise SolverConvergenceError(
                f"quadrature failed in Picard iteration {iterations}: {exc}",
                report, iteration=iterations,
                exponent=getattr(exc, "exponent", None)) from exc

    x = linear_step(None)
    for iterations in range(1, config.max_iter + 1):
        y = linear_step(compute_sources(x))
        y = _blend(x, y, config.relaxation)
        inc = picard_norm(grid, y.gamma - x.gamma, alpha)
        increments.append(inc)
        x = y
        if not np.isfinite(inc):
            report = _report(False, iterations, increments, alpha, feasible,
                             flow, boundary, warnings)
            raise SolverConvergenceError(
                "Picard iterate lost finiteness; data too large for the "
                "contraction regime", report)
        if inc < config.tol_fp:
            converged = True
            break

    report = _report(converged, iterations, increments, alpha, feasible,
                     flow, boundary, warnings)
    if not converged:
        raise SolverConvergenceError(
            f"no contraction to tol_fp={config.tol_fp:g} within "
            f"{config.max_iter} iterations (last increment "
            f"{increments[-1]:.3e}, contraction ratio "
            f"{report.contraction_ratio:.3f})", report)
    return x, report


def _report(converged, iterations, increments, alpha, feasible, flow,
            boundary, warnings):
    return SolveReport(converged=converged, iterations=iterations,
                       increments=list(increments),
                       contraction_ratio=_contraction_ratio(increments),
                       alpha=alpha, alpha_feasible=feasible,
                       mu=flow.mu, mu0=boundary.mu0, phi0=flow.phi0,
                       warnings=list(warnings))


def fixed_point_residual(solution: SpectralSolution,
                         config: SolverConfig | None = None) -> float:
    """||Phi(X) - X|| in the contraction norm, one extra map application."""
    config = config or SolverConfig()
    sources = compute_sources(solution)
    image = solve_linear(solution.flow, solution.grid, solution.boundary,
                         sources, resonance_tol=config.resonance_tol)
    alpha, _ = alpha_window(solution.flow.phi0, solution.flow.mu)
    return picard_norm(solution.grid, image.gamma - solution.gamma, alpha)


def shoot_mu(boundary: BoundarySpectrum, config: SolverConfig | None = None,
             grid: RadialGrid | None = None):
    """Close the circulation condition for phi0 <= 2 by shooting in mu.

    The trace in ``boundary`` is rebudgeted against each candidate mu; the
    update is the fixed point mu <- mu0 + d_r gamma_{mu,0}(1), switching to
    a secant step on g(mu) after two consecutive non-contracting steps.
    """
    config = config or SolverConfig()
    if boundary.phi0 > 2.0:
        raise ValueError("shooting applies to phi0 <= 2; use branch_sweep or "
                         "picard_solve directly for phi0 > 2")
    grid = grid or config.make_grid()
    mu = boundary.mu
    g_history = []
    secant = False
    solution = report = None
    for _ in range(config.max_shoot):
        flow = ReferenceFlow(boundary.phi0, mu)
        spec = boundary.with_mu(mu)
        solution, report = picard_solve(flow, spec, config, grid)
        dg0 = float(np.real(solution.dgamma[0, 0]))
        g = boundary.mu0 + dg0 - mu
        g_history.append((mu, g))
        report.mu_history = [m for m, _ in g_history]
        report.shoot_residual = abs(g)
        if abs(g) <= config.tol_mu * max(1.0, abs(mu)):
            return solution, report
        if (not secant and len(g_history) >= 3
                and abs(g_history[-1][1]) >= 0.5 * abs(g_history[-2][1])
                and abs(g_history[-2][1]) >= 0.5 * abs(g_history[-3][1])):
            secant = True
            report.warnings.append("shooting switched to secant updates")
        if secant and len(g_history) >= 2:
            (m1, g1), (m2, g2) = g_history[-2], g_history[-1]
            if g2 == g1:
                mu = m2 + g2
            else:
                mu = m2 - g2 * (m2 - m1) / (g2 - g1)
        else:
            mu = boundary.mu0 + dg0
    raise SolverConvergenceError(
        f"circulation shooting did not reach tol_mu={config.tol_mu:g} in "
        f"{config.max_shoot} steps (last residual {abs(g_history[-1][1]):.3e})",
        report)


@dataclass
class BranchMember:
    mu: float
    solution: SpectralSolution | None
    report: SolveReport | None
    error: str | None = None


def branch_sweep(boundary: BoundarySpectrum, mu_values,
                 config: SolverConfig | None = None):
    """Solve one physical trace against each circulation in mu_values.

    Requires phi0 > 2 (elsewhere mu is determined, not free).  Failures are
    recorded per member; the sweep continues.  Members come back in the
    order of mu_values.  A flux in the degenerate band around 2 is an input
    error shared by every member: ``DegenerateFluxError`` propagates.
    """
    config = config or SolverConfig()
    if boundary.phi0 <= 2.0:
        raise ValueError("branch sweeps need phi0 > 2")
    grid = config.make_grid()

    def run(mu: float) -> BranchMember:
        try:
            flow = ReferenceFlow(boundary.phi0, float(mu))
            sol, rep = picard_solve(flow, boundary.with_mu(float(mu)),
                                    config, grid)
            return BranchMember(mu=float(mu), solution=sol, report=rep)
        except DegenerateFluxError:
            raise
        except (SolverConvergenceError, ValueError, ArithmeticError) as exc:
            rep = getattr(exc, "report", None)
            return BranchMember(mu=float(mu), solution=None, report=rep,
                                error=str(exc))

    return [run(float(mu)) for mu in mu_values]
