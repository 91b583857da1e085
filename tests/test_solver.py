"""Picard iteration, circulation shooting, and branch sweeps."""

import numpy as np
import pytest

from hamelflow import (BoundarySpectrum, DivergentTailError, ReferenceFlow,
                       SolverConfig,
                       SolverConvergenceError, branch_sweep,
                       fixed_point_residual, picard_norm, picard_solve,
                       shoot_mu, solve_linear)


def bdry(n_max, phi0, mu0, mu, eps):
    vr = np.zeros(n_max + 1, complex)
    vt = np.zeros(n_max + 1, complex)
    vr[2] = eps
    vt[1] = eps
    vt[0] = mu0 - mu
    return BoundarySpectrum(n_max, vr, vt, phi0, mu0, mu)


CFG = SolverConfig(n_modes=8, nodes_per_decade=48)


def test_picard_converges_to_fixed_point():
    flow = ReferenceFlow(2.5, 0.2)
    sol, rep = picard_solve(flow, bdry(8, 2.5, 0.2, 0.2, 0.01), CFG)
    assert rep.converged
    assert rep.iterations <= 10
    assert rep.contraction_ratio < 0.1
    assert fixed_point_residual(sol, CFG) < 2.0 * CFG.tol_fp
    assert rep.alpha_feasible


def test_relaxation_reaches_same_fixed_point():
    flow = ReferenceFlow(2.5, 0.2)
    b = bdry(8, 2.5, 0.2, 0.2, 0.01)
    sol_full, _ = picard_solve(flow, b, CFG)
    relaxed = SolverConfig(n_modes=8, nodes_per_decade=48, relaxation=0.5)
    sol_half, rep = picard_solve(flow, b, relaxed)
    assert rep.converged
    assert np.abs(sol_full.gamma - sol_half.gamma).max() < 1e-8


def test_nonlinear_correction_is_quadratic_in_data():
    # The distance between the fixed point and the first Picard iterate
    # scales like the square of the boundary amplitude; the prefactor is
    # stable across a dyadic sweep.
    flow = ReferenceFlow(2.5, 0.2)
    ratios = []
    for eps in (1e-2, 5e-3, 2.5e-3):
        b = bdry(8, 2.5, 0.2, 0.2, eps)
        sol, rep = picard_solve(flow, b, CFG)
        lin = solve_linear(flow, sol.grid, b)
        d = picard_norm(sol.grid, sol.gamma - lin.gamma, rep.alpha)
        ratios.append(d / eps ** 2)
    assert max(ratios) / min(ratios) < 1.05


def test_divergence_raises_with_report():
    flow = ReferenceFlow(2.5, 0.2)
    cfg = SolverConfig(n_modes=8, nodes_per_decade=48, max_iter=2)
    with pytest.raises(SolverConvergenceError) as err:
        picard_solve(flow, bdry(8, 2.5, 0.2, 0.2, 0.01), cfg)
    assert err.value.report is not None
    assert not err.value.report.converged
    assert err.value.report.iterations == 2


def test_quadrature_failure_is_a_typed_convergence_error():
    # The tail fit reads one iterate's integrand as divergent; picard_solve
    # reports that as a convergence failure with its partial report.
    b = bdry(16, 1.8, 0.5, 0.5, 0.01)
    with pytest.raises(SolverConvergenceError) as err:
        picard_solve(ReferenceFlow(1.8, 0.5), b, SolverConfig(n_modes=16))
    exc = err.value
    assert isinstance(exc.__cause__, DivergentTailError)
    assert exc.iteration >= 1
    assert exc.report is not None and not exc.report.converged
    assert exc.report.iterations == exc.iteration
    assert len(exc.report.increments) == exc.iteration - 1
    assert exc.exponent == exc.__cause__.exponent > -1.0


def test_shooting_closes_mean_trace():
    sol, rep = shoot_mu(bdry(8, 1.0, 5.0, 5.0, 0.01), CFG)
    assert rep.converged
    assert rep.shoot_residual < CFG.tol_mu * max(1.0, abs(rep.mu))
    assert len(rep.mu_history) >= 1
    # closure condition: the mean swirl trace matches mu0 - mu exactly
    assert abs(-sol.dgamma[0, 0].real - (5.0 - rep.mu)) < 1e-9


def test_shooting_shift_is_quadratic_in_data():
    shifts = {}
    for eps in (1e-2, 5e-3):
        _, rep = shoot_mu(bdry(8, 1.0, 5.0, 5.0, eps), CFG)
        shifts[eps] = abs(rep.mu - 5.0)
    ratio = shifts[1e-2] / shifts[5e-3]
    assert 2.0 < ratio < 8.0


def test_shooting_rejects_supercritical_flux():
    with pytest.raises(ValueError):
        shoot_mu(bdry(8, 2.5, 0.2, 0.2, 0.01), CFG)


def test_branch_sweep_orders_members():
    members = branch_sweep(bdry(6, 2.5, 0.2, 0.2, 0.01),
                           [0.15, 0.2, 0.25],
                           SolverConfig(n_modes=6, nodes_per_decade=48))
    assert [m.mu for m in members] == [0.15, 0.2, 0.25]
    assert all(m.solution is not None for m in members)
    assert all(m.report.converged for m in members)
    # distinct circulations genuinely change the solution
    d = np.abs(members[0].solution.gamma[0] - members[2].solution.gamma[0])
    assert d.max() > 1e-3


def test_branch_sweep_rejects_subcritical_flux():
    with pytest.raises(ValueError):
        branch_sweep(bdry(6, 1.0, 5.0, 5.0, 0.01), [4.9, 5.1], CFG)


def test_branch_sweep_captures_member_failures():
    # amplitude far outside the contraction regime: every member must fail
    # and the sweep must report the failures instead of raising
    cfg = SolverConfig(n_modes=6, nodes_per_decade=48, max_iter=6)
    members = branch_sweep(bdry(6, 2.5, 0.2, 0.2, 20.0), [0.15, 0.25], cfg)
    assert all(m.solution is None for m in members)
    assert all(m.error for m in members)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(relaxation=0.0)
    with pytest.raises(ValueError):
        SolverConfig(n_modes=0)
    grid = SolverConfig(n_modes=4, nodes_per_decade=32, r_max=100.0).make_grid()
    assert grid.r_max == 100.0
