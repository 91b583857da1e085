"""Picard iteration, circulation shooting, and branch sweeps.

The construction is a fixed point of X -> S(NL(X), trace): solve the linear
mode problems against the advection sources of the previous iterate.  For
boundary data small in the weighted trace norm the map contracts in

    ||X|| = sup_{n, r} r^alpha (1 + |n|)^4 |gamma_n(r)|,

with alpha inside the window (0, min(rho - 2, 1)) fixed by the flow.  For
phi0 <= 2 the mean mode carries no usable homogeneous solution, so the
circulation of the reference flow is itself an unknown closing
g(mu) = mu0 + d_r gamma_{mu,0}(1) - mu = 0.  It joins X in one fixed point:
each Picard step sets mu <- mu0 + d_r gamma_0(1) of the current iterate
before applying the linear map.
For phi0 > 2 every mu near mu0 is admissible and sweeping mu against one
physical trace exhibits the non-uniqueness branch.

Every entry point takes the boundary spectrum and a ``SolverConfig``; the
reference flow is the spectrum's own, checked when it was built, its regime
is ``flows.circulation_is_free``, and ``config.n_modes`` is its ``n_max``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .flows import alpha_window, circulation_is_free
from .grid import BoundarySpectrum, RadialGrid, build_grid
from .linear import SpectralSolution, solve_linear
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
    Picard step it happened in (0 for the initial linear solve) and the
    failure itself is ``__cause__`` (a ``DivergentTailError`` names the
    fitted exponent and the diverging kernel row).
    """

    def __init__(self, message, report=None, iteration=None):
        super().__init__(message)
        self.report = report
        self.iteration = iteration


@dataclass(frozen=True)
class SolverConfig:
    n_modes: int = 16
    r_max: float = 1e4
    nodes_per_decade: int = 64
    tol_fp: float = 1e-12
    max_iter: int = 60
    tol_mu: float = 1e-10

    def __post_init__(self):
        if self.n_modes < 1:
            raise ValueError("need at least one nonzero mode")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if not (self.tol_fp > 0.0 and self.tol_mu > 0.0):
            raise ValueError("tol_fp and tol_mu must be positive")
        self.make_grid()   # rejects grids too short to solve on

    def make_grid(self) -> RadialGrid:
        return build_grid(self.r_max, self.nodes_per_decade)


@dataclass
class SolveReport:
    converged: bool
    iterations: int
    increments: list
    contraction_ratio: float
    fixed_point_bound: float
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


def _contraction_ratio(increments) -> float:
    pairs = [(a, b) for a, b in zip(increments, increments[1:]) if a > 0.0]
    if not pairs:
        return 0.0
    return float(np.median([b / a for a, b in pairs]))


def _fixed_point_bound(increments) -> float:
    """What the loop's stop compares with ``tol_fp``: the last increment
    delta_k times min(1, q/(1-q)), with q = delta_k/delta_{k-1} +
    delta_{k-1}/delta_{k-2} the sum of the last two ratios.

    For a map contracting by q per step, q/(1-q) delta_k bounds the
    distance of the iterate to the fixed point (Banach's a-posteriori
    estimate).  The ratios are not constant: each step carries the
    nonlinearity into higher modes, and on the weak-flux bank the next
    ratio was up to 5x the larger of the last two, so that one alone
    underestimates the distance (by 1.9x on bank trace 178).  Their sum is
    at most twice the larger.  The factor is 1 with fewer than three
    increments or at q >= 1/2, so the value is never above delta_k; nan
    before the first increment.
    """
    if not increments:
        return float("nan")
    delta = increments[-1]
    if len(increments) >= 3 and increments[-2] > 0.0 and increments[-3] > 0.0:
        q = delta / increments[-2] + increments[-2] / increments[-3]
        if q < 0.5:
            return delta * q / (1.0 - q)
    return delta


def _check_modes(boundary: BoundarySpectrum, config: SolverConfig):
    if config.n_modes != boundary.n_max:
        raise ValueError(f"config.n_modes={config.n_modes} but the boundary "
                         f"spectrum has n_max={boundary.n_max}")


def _fixed_point(boundary: BoundarySpectrum, config: SolverConfig,
                 shoot: bool):
    """The Picard loop over (X, mu) shared by picard_solve and shoot_mu,
    on the grid of ``config``, around the spectrum's flow (phi0, mu).

    Step 0 solves the linear problem without sources; every later step
    applies one linear solve to the sources of the current iterate.  With
    ``shoot`` each step first sets mu <- mu0 + Re dgamma_0(1) of the
    current iterate, i.e. mu + g, and rebudgets the trace against it;
    otherwise mu stays at ``boundary.mu``.  The loop stops when
    ``_fixed_point_bound`` of the increments is below ``tol_fp`` and |g|
    is within ``tol_mu``; the iterates up to there do not depend on the
    stop.
    """
    _check_modes(boundary, config)
    grid = config.make_grid()
    spec, g = boundary, 0.0
    increments, mu_history = [], []

    def report(converged):
        alpha, feasible = alpha_window(spec.phi0, spec.mu)
        warnings = [] if feasible else [
            "decay rate rho <= 2: contraction window is empty, using "
            f"alpha={alpha:g} as a diagnostic weight only"]
        return SolveReport(
            converged=converged, iterations=iterations,
            increments=list(increments),
            contraction_ratio=_contraction_ratio(increments),
            fixed_point_bound=_fixed_point_bound(increments), alpha=alpha,
            alpha_feasible=feasible, mu=spec.mu, mu0=spec.mu0,
            phi0=spec.phi0, mu_history=list(mu_history),
            shoot_residual=abs(g) if shoot else float("nan"),
            warnings=warnings)

    x = None
    for iterations in range(config.max_iter + 1):
        if shoot:
            if x is not None:
                spec = spec.with_mu(spec.mu + g)
            mu_history.append(spec.mu)
        try:
            y = solve_linear(spec.flow, grid, spec,
                             None if x is None else compute_sources(x))
        except ArithmeticError as exc:
            raise SolverConvergenceError(
                f"quadrature failed in Picard iteration {iterations}: {exc}",
                report(False), iteration=iterations) from exc
        if x is not None:
            alpha, _ = alpha_window(spec.phi0, spec.mu)
            increments.append(picard_norm(grid, y.gamma - x.gamma, alpha))
        x = y
        if shoot:
            g = spec.mu0 + float(np.real(x.dgamma[0, 0])) - spec.mu
        if not np.isfinite([g] + increments[-1:]).all():
            raise SolverConvergenceError(
                "Picard iterate lost finiteness; data too large for the "
                "contraction regime", report(False))
        if (_fixed_point_bound(increments) < config.tol_fp
                and abs(g) <= config.tol_mu * max(1.0, abs(spec.mu))):
            return x, report(True)

    rep = report(False)
    closure = (f"; circulation residual {abs(g):.3e}, tol_mu="
               f"{config.tol_mu:g}" if shoot else "")
    raise SolverConvergenceError(
        f"no contraction to tol_fp={config.tol_fp:g} within "
        f"{config.max_iter} iterations (last increment "
        f"{increments[-1]:.3e}, contraction ratio "
        f"{rep.contraction_ratio:.3f}){closure}", rep)


def picard_solve(boundary: BoundarySpectrum,
                 config: SolverConfig | None = None):
    """Iterate the source-to-solution map to its fixed point at the
    spectrum's own circulation ``boundary.mu``.

    Returns (solution, report); raises SolverConvergenceError (with the
    report attached) when max_iter is exhausted, the iterate degenerates or
    the quadrature fails, and ValueError when ``config.n_modes`` is not
    ``boundary.n_max``.
    """
    return _fixed_point(boundary, config or SolverConfig(), shoot=False)


def fixed_point_residual(solution: SpectralSolution) -> float:
    """||Phi(X) - X|| in the contraction norm, one extra map application."""
    image = solve_linear(solution.flow, solution.grid, solution.boundary,
                         compute_sources(solution))
    alpha, _ = alpha_window(solution.flow.phi0, solution.flow.mu)
    return picard_norm(solution.grid, image.gamma - solution.gamma, alpha)


def shoot_mu(boundary: BoundarySpectrum, config: SolverConfig | None = None):
    """Close the circulation condition for phi0 <= 2 with mu an unknown.

    One Picard loop over (X, mu) from ``boundary.mu``; it stops when both
    the bound on the distance to the fixed point and g(mu) =
    mu0 + Re dgamma_0(1) - mu are within tolerance.  The report holds one
    ``mu_history`` entry per step.
    """
    config = config or SolverConfig()
    if circulation_is_free(boundary.phi0):
        raise ValueError("shooting applies to phi0 <= 2; use branch_sweep or "
                         "picard_solve directly for phi0 > 2")
    return _fixed_point(boundary, config, shoot=True)


@dataclass
class BranchMember:
    mu: float
    solution: SpectralSolution | None
    report: SolveReport | None
    error: str | None = None


def branch_sweep(boundary: BoundarySpectrum, mu_values,
                 config: SolverConfig | None = None):
    """Solve one physical trace against each circulation in mu_values.

    Requires a free circulation, phi0 > 2 (elsewhere mu is determined).
    Failures are recorded per member, a mu the flow refuses included; the
    sweep continues.  Members come back in the order of mu_values.  A
    ``config.n_modes`` other than ``boundary.n_max`` raises ``ValueError``;
    the flux was checked when the spectrum was built.
    """
    config = config or SolverConfig()
    if not circulation_is_free(boundary.phi0):
        raise ValueError("branch sweeps need phi0 > 2")
    _check_modes(boundary, config)

    def run(mu: float) -> BranchMember:
        try:
            sol, rep = picard_solve(boundary.with_mu(mu), config)
            return BranchMember(mu=float(mu), solution=sol, report=rep)
        except (SolverConvergenceError, ValueError, ArithmeticError) as exc:
            rep = getattr(exc, "report", None)
            return BranchMember(mu=float(mu), solution=None, report=rep,
                                error=str(exc))

    return [run(float(mu)) for mu in mu_values]
