"""Picard iteration, circulation shooting, and branch sweeps."""

import json
import os
import tempfile

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import hamelflow.cli
import hamelflow.solve
from hamelflow import (BoundarySpectrum, DivergentTailError, ReferenceFlow,
                       SolverConfig,
                       SolverConvergenceError, branch_sweep,
                       circulation_threshold, fixed_point_residual,
                       mode_exponents, picard_norm, picard_solve, shoot_mu,
                       solve_linear)
from hamelflow.field import ns_residual


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
    assert fixed_point_residual(sol) < 2.0 * CFG.tol_fp
    assert rep.alpha_feasible


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


def test_quadrature_failure_is_a_typed_convergence_error(divergent_sources):
    # One iterate's integrand has a divergent tail; picard_solve reports
    # that as a convergence failure with its partial report.
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
    # The vorticity stack's row 0 (mode 1) diverges: its kernel is zeta_1^+.
    assert exc.row == exc.__cause__.row == 0
    assert exc.zeta == exc.__cause__.zeta
    assert exc.zeta == pytest.approx(
        mode_exponents(ReferenceFlow(1.8, 0.5), 1).zeta_plus, rel=1e-12)
    assert "kernel row 0, zeta=0.4579" in str(exc)


def test_weak_flux_reproducer_converges():
    # A weak-flux trace whose vorticity tail falls below one ulp of its
    # row: that rounding noise must not be read as a diverging power.
    for n_max, cfg in ((12, SolverConfig(n_modes=12, nodes_per_decade=96)),
                       (16, SolverConfig(n_modes=16))):
        sol, rep = shoot_mu(bdry(n_max, 1.8, 0.5, 0.5, 0.01), cfg)
        assert rep.converged
        assert ns_residual(sol) < 1e-6
    _, rep = picard_solve(ReferenceFlow(1.8, 0.5),
                          bdry(16, 1.8, 0.5, 0.5, 0.01), SolverConfig(n_modes=16))
    assert rep.converged


# Traces 0, 1 and 231 of the shoot_weak benchmark's weak-flux bank
# (bench/workloads.py): phi0, mu0 and modes 1-3 of vr and vtheta.
BANK_TRACES = {
    0: (1.0828535303206555, 5.786074411431745,
        [-0.00010224381274634149 - 0.004640475288867j,
         -0.005860290451238035 - 0.004830987724543659j,
         0.005875245874871167 + 0.003783620721277821j],
        [-0.004191597997772347 - 0.0017414523462295133j,
         0.0013477996534527656 + 0.0037965890631777204j,
         -0.004577256093130149 + 0.0014833322809472103j]),
    1: (0.7692458169890319, 7.368863392513104,
        [-0.009225848177473666 - 0.011397539280039596j,
         -0.008275196773349792 + 0.007424708791362085j,
         0.001643307512060801 - 0.011161342423381524j],
        [0.0036598105467545742 - 0.01024248363469079j,
         0.007916845634741572 - 0.008896325565114464j,
         0.0071339846688731065 - 0.010170772475405496j]),
    231: (1.145170841299466, 4.446753385003399,
          [-0.009030902363199185 - 0.0007773653632641313j,
           -0.008479331514709119 - 0.007138755128231947j,
           -0.003262609901836001 - 0.009252503693435329j],
          [0.01224477599407832 - 0.010083228274503715j,
           -0.006512034120261861 - 0.013016821949708863j,
           -0.011971997170976035 - 0.005714993142601975j]),
}


@pytest.mark.parametrize("trace", sorted(BANK_TRACES))
def test_bank_traces_converge_under_refinement(trace):
    # Refining the grid must not turn rounding noise in a tail into a
    # divergence; mu then settles at the rule's order and the residual
    # falls with every doubling.
    phi0, mu0, vr, vt = BANK_TRACES[trace]
    n_max = 12
    r = np.zeros(n_max + 1, complex)
    t = np.zeros(n_max + 1, complex)
    r[1:4], t[1:4] = vr, vt
    spec = BoundarySpectrum(n_max, r, t, phi0, mu0, mu0)
    mus, residuals = [], []
    for npd in (96, 192, 384):
        sol, rep = shoot_mu(spec, SolverConfig(n_modes=n_max,
                                               nodes_per_decade=npd))
        assert rep.converged
        mus.append(rep.mu)
        residuals.append(ns_residual(sol))
    assert abs(mus[2] - mus[1]) <= abs(mus[1] - mus[0]) / 2
    assert residuals[0] > residuals[1] > residuals[2]


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


def nested_shoot_mu(boundary, config, max_shoot=40):
    """The former shooting scheme, kept as the reference: a full picard_solve
    per candidate mu, updated by mu <- mu0 + d_r gamma_{mu,0}(1) with a
    secant switch after two non-contracting candidates."""
    mu = boundary.mu
    g_history = []
    secant = False
    for _ in range(max_shoot):
        flow = ReferenceFlow(boundary.phi0, mu)
        solution, report = picard_solve(flow, boundary.with_mu(mu), config)
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
        if secant and len(g_history) >= 2:
            (m1, g1), (m2, g2) = g_history[-2], g_history[-1]
            mu = m2 + g2 if g2 == g1 else m2 - g2 * (m2 - m1) / (g2 - g1)
        else:
            mu = boundary.mu0 + dg0
    raise SolverConvergenceError("reference shooting did not close", report)


def count_linear_solves(monkeypatch):
    calls = [0]
    inner = hamelflow.solve.solve_linear

    def counted(*args, **kwargs):
        calls[0] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(hamelflow.solve, "solve_linear", counted)
    return calls


def check_shooting_trace(n_max):
    # The trace of verify.check_shooting (quick settings).
    vr = np.zeros(n_max + 1, complex)
    vt = np.zeros(n_max + 1, complex)
    vr[1] = 0.01
    vt[1] = 0.01j
    return BoundarySpectrum(n_max, vr, vt, 1.0, 5.0, 5.0)


@pytest.mark.parametrize("boundary", [bdry(8, 1.0, 5.0, 5.0, 0.01),
                                      check_shooting_trace(8)],
                         ids=["test_solver", "check_shooting"])
def test_fused_shooting_matches_nested_shooting(monkeypatch, boundary):
    calls = count_linear_solves(monkeypatch)
    ref_sol, ref_rep = nested_shoot_mu(boundary, CFG)
    nested_calls, calls[0] = calls[0], 0
    sol, rep = shoot_mu(boundary, CFG)
    assert rep.converged and rep.warnings == []
    assert abs(rep.mu - ref_rep.mu) <= 2 * CFG.tol_mu * max(1.0, abs(rep.mu))
    assert rep.shoot_residual <= CFG.tol_mu * max(1.0, abs(rep.mu))
    # Each mode row agrees to 1e-8 of its maximum; rows whose maximum is
    # below tol_fp are not resolved by either loop (the check_shooting
    # trace's mode 8 peaks at 2e-24) and are held to the overall maximum.
    scale = np.abs(ref_sol.gamma).max(axis=1, keepdims=True)
    scale = np.where(scale > CFG.tol_fp, scale, scale.max())
    assert (np.abs(sol.gamma - ref_sol.gamma) <= 1e-8 * scale).all()
    # one linear solve per step: the first has no sources
    assert calls[0] == len(rep.mu_history) == rep.iterations + 1
    assert rep.mu_history[0] == boundary.mu and rep.mu_history[-1] == rep.mu
    assert len(rep.increments) == rep.iterations
    assert calls[0] < nested_calls


def test_shooting_falls_back_to_secant_updates():
    # On this weak-flux trace g falls by less than half per step, so the
    # loop switches to secant updates in mu and still closes the
    # circulation the nested scheme finds.
    vr = np.zeros(9, complex)
    vt = np.zeros(9, complex)
    vr[1:4] = [-0.00363 - 0.184j, 0.000575 - 0.0412j, -0.155 - 0.0695j]
    vt[1:4] = [0.0591 + 0.106j, 0.189 - 0.0431j, -0.112 - 0.11j]
    b = BoundarySpectrum(8, vr, vt, 1.39, 1.82, 1.82)
    _, ref = nested_shoot_mu(b, CFG)
    _, rep = shoot_mu(b, CFG)
    assert rep.converged
    assert rep.warnings == ["shooting switched to secant updates"]
    assert abs(rep.mu - ref.mu) <= 2 * CFG.tol_mu * max(1.0, abs(ref.mu))
    assert len(rep.mu_history) == rep.iterations + 1


def test_shooting_stops_only_when_the_circulation_closes():
    # A loose tol_fp is met after the first step with sources, while g is
    # still of order eps^2: the loop must go on until g closes too.
    b = bdry(8, 1.0, 5.0, 5.0, 0.01)
    _, tight = shoot_mu(b, CFG)
    loose = SolverConfig(n_modes=8, nodes_per_decade=48, tol_fp=1e-3)
    _, rep = shoot_mu(b, loose)
    assert rep.increments[0] < loose.tol_fp
    assert rep.shoot_residual <= loose.tol_mu * max(1.0, abs(rep.mu))
    assert abs(rep.mu - tight.mu) <= 2 * CFG.tol_mu * max(1.0, abs(tight.mu))


def test_shooting_budget_is_max_iter():
    cfg = SolverConfig(n_modes=8, nodes_per_decade=48, max_iter=3)
    with pytest.raises(SolverConvergenceError) as err:
        shoot_mu(bdry(8, 1.0, 5.0, 5.0, 0.01), cfg)
    rep = err.value.report
    assert not rep.converged and rep.iterations == 3
    assert len(rep.mu_history) == 4
    assert "circulation residual" in str(err.value)


_row = st.tuples(st.floats(-0.015, 0.015), st.floats(-0.015, 0.015))


@settings(max_examples=25, deadline=None)
@given(phi0=st.floats(0.5, 1.9), offset=st.floats(0.02, 6.0),
       vr=st.lists(_row, min_size=3, max_size=3),
       vt=st.lists(_row, min_size=3, max_size=3))
def test_weak_flux_shooting_converges_or_fails_typed(phi0, offset, vr, vt):
    n_max = 6
    mu0 = float(circulation_threshold(phi0) + offset)
    r = np.zeros(n_max + 1, complex)
    t = np.zeros(n_max + 1, complex)
    r[1:4] = [complex(*z) for z in vr]
    t[1:4] = [complex(*z) for z in vt]
    cfg = SolverConfig(n_modes=n_max, nodes_per_decade=48)
    try:
        _, rep = shoot_mu(BoundarySpectrum(n_max, r, t, phi0, mu0, mu0), cfg)
    except SolverConvergenceError as exc:
        assert exc.report is not None and not exc.report.converged
        return
    assert rep.shoot_residual <= cfg.tol_mu * max(1.0, abs(rep.mu))


_mode = st.tuples(st.floats(0.0, 0.01), st.floats(0.0, 1.0))   # |c|, turns


@settings(max_examples=25, deadline=None)
@given(phi0=st.floats(2.05, 4.0), mu=st.floats(-2.0, 2.0),
       vr=st.lists(_mode, min_size=3, max_size=3),
       vt=st.lists(_mode, min_size=3, max_size=3))
def test_strong_flux_solve_converges_or_fails_typed(phi0, mu, vr, vt):
    # phi0 > 2: picard_solve at the prescribed mu converges or raises
    # SolverConvergenceError with its report, and `hamelflow solve` on the
    # same config says which in one line (exit 0 or 2).
    n_max = 8
    rows = {k: [m * np.exp(2j * np.pi * turns) for m, turns in v]
            for k, v in (("vr", vr), ("vtheta", vt))}
    r = np.zeros(n_max + 1, complex)
    t = np.zeros(n_max + 1, complex)
    r[1:4], t[1:4] = rows["vr"], rows["vtheta"]
    cfg = SolverConfig(n_modes=n_max, nodes_per_decade=48)
    try:
        _, rep = picard_solve(ReferenceFlow(phi0, mu),
                              BoundarySpectrum(n_max, r, t, phi0, mu, mu), cfg)
        converged = rep.converged
    except SolverConvergenceError as exc:
        assert exc.report is not None and not exc.report.converged
        converged = False
    config = {"flow": {"phi0": phi0, "mu0": mu, "mu": mu},
              "boundary": {"modes": {
                  k: [[c.real, c.imag] for c in v] for k, v in rows.items()}},
              "solver": {"n_modes": n_max, "nodes_per_decade": 48}}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        res = CliRunner().invoke(hamelflow.cli.main, [
            "solve", "--config", path, "--out", os.path.join(tmp, "o")])
    assert res.exit_code == (0 if converged else 2), res.output
    assert res.output.count("\n") == 1


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
        SolverConfig(n_modes=0)
    grid = SolverConfig(n_modes=4, nodes_per_decade=32, r_max=100.0).make_grid()
    assert grid.r_max == 100.0
