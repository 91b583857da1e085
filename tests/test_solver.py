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
from hamelflow import (BoundarySpectrum, DivergentTailError, SolverConfig,
                       SolverConvergenceError, SourceSpectrum, branch_sweep,
                       circulation_threshold, fixed_point_residual,
                       picard_norm, picard_solve, shoot_mu,
                       solve_linear, synthesize_boundary, zeta_pair)
from hamelflow.field import ns_residual
from hamelflow.flows import circulation_is_free


def bdry(n_max, phi0, mu0, mu, eps):
    """The trace with vr[2] = vtheta[1] = eps."""
    return BoundarySpectrum.from_modes(n_max, phi0, mu0, mu, vr={2: eps},
                                       vtheta={1: eps})


CFG = SolverConfig(n_modes=8, nodes_per_decade=48)


def test_picard_converges_to_fixed_point():
    sol, rep = picard_solve(bdry(8, 2.5, 0.2, 0.2, 0.01), CFG)
    assert rep.converged
    assert rep.iterations <= 10
    assert rep.contraction_ratio < 0.1
    assert fixed_point_residual(sol) < 2.0 * CFG.tol_fp
    assert rep.alpha_feasible


def test_mean_row_is_derived_from_mu0_and_mu():
    # Whatever a caller puts at index 0, the spectrum carries vr[0] = 0 and
    # vtheta[0] = mu0 - mu: a stray mean row solves to the same bytes as
    # the consistent one, and the trace's means are (-phi0, mu0).
    consistent = bdry(8, 2.5, 0.3, 0.2, 0.01)
    vr, vt = consistent.vr.copy(), consistent.vtheta.copy()
    vr[0], vt[0] = 0.05, 0.0
    stray = BoundarySpectrum(8, vr, vt, 2.5, 0.3, 0.2)
    sol, _ = picard_solve(consistent, CFG)
    sol_s, rep = picard_solve(stray, CFG)
    for key in ("gamma", "dgamma", "w", "dw"):
        assert getattr(sol_s, key).tobytes() == getattr(sol, key).tobytes()
    assert rep.mu0 == 0.3
    assert rep.mu - sol_s.dgamma[0, 0].real == pytest.approx(0.3, abs=1e-12)
    ur, ut = synthesize_boundary(stray, 64)
    assert np.mean(ur) == pytest.approx(-2.5, abs=1e-14)
    assert np.mean(ut) == pytest.approx(0.3, abs=1e-14)


def test_solves_reject_a_mode_count_other_than_the_spectrum():
    cfg = SolverConfig(n_modes=6, nodes_per_decade=48)
    strong, weak = bdry(8, 2.5, 0.2, 0.2, 0.01), bdry(8, 1.0, 5.0, 5.0, 0.01)
    for run in (lambda: picard_solve(strong, cfg),
                lambda: shoot_mu(weak, cfg),
                lambda: branch_sweep(strong, [0.15, 0.2], cfg)):
        with pytest.raises(ValueError, match="n_modes=6 .* n_max=8"):
            run()


def test_nonlinear_correction_is_quadratic_in_data():
    # The distance between the fixed point and the first Picard iterate
    # scales like the square of the boundary amplitude; the prefactor is
    # stable across a dyadic sweep.
    ratios = []
    for eps in (1e-2, 5e-3, 2.5e-3):
        b = bdry(8, 2.5, 0.2, 0.2, eps)
        sol, rep = picard_solve(b, CFG)
        lin = solve_linear(sol.flow, sol.grid, b)
        d = picard_norm(sol.grid, sol.gamma - lin.gamma, rep.alpha)
        ratios.append(d / eps ** 2)
    assert max(ratios) / min(ratios) < 1.05


def test_scan_overflow_is_a_typed_convergence_error():
    # At phi0 = 60 and r_max = 1e6 the mean mode's sink-weighted row
    # (zeta = -61) grows by 1e366 over the grid.  The first solve has no
    # sources, so that row is zero and costs nothing; iteration 1 raises.
    b = bdry(4, 60.0, 0.2, 0.2, 0.01)
    with pytest.raises(SolverConvergenceError) as err:
        picard_solve(b, SolverConfig(n_modes=4, nodes_per_decade=32,
                                     r_max=1e6))
    exc = err.value
    assert isinstance(exc.__cause__, OverflowError)
    assert exc.iteration == 1
    assert str(exc).startswith("quadrature failed in Picard iteration 1: ")
    assert str(exc).endswith("(out kernel row 4, zeta=-61+0j)")


def test_non_finite_iterate_raises_with_report(monkeypatch):
    # NaN sources make a NaN iterate: a typed failure with its report, not
    # a NaN solution, and no warning from the quadrature on the way.
    def nan_sources(solution):
        F = np.full((solution.n_max + 1, solution.grid.n_nodes), np.nan,
                    dtype=complex)
        return SourceSpectrum(n_max=solution.n_max, F=F)

    monkeypatch.setattr(hamelflow.solve, "compute_sources", nan_sources)
    with pytest.raises(SolverConvergenceError,
                       match="Picard iterate lost finiteness") as err:
        picard_solve(bdry(8, 2.5, 0.2, 0.2, 0.01), CFG)
    report = err.value.report
    assert report is not None and not report.converged
    assert report.iterations == 1
    assert len(report.increments) == 1 and np.isnan(report.increments[0])


def test_divergence_raises_with_report():
    cfg = SolverConfig(n_modes=8, nodes_per_decade=48, max_iter=2)
    with pytest.raises(SolverConvergenceError) as err:
        picard_solve(bdry(8, 2.5, 0.2, 0.2, 0.01), cfg)
    assert err.value.report is not None
    assert not err.value.report.converged
    assert err.value.report.iterations == 2


def test_quadrature_failure_is_a_typed_convergence_error(divergent_sources):
    # One iterate's integrand has a divergent tail; picard_solve reports
    # that as a convergence failure with its partial report.
    b = bdry(16, 1.8, 0.5, 0.5, 0.01)
    with pytest.raises(SolverConvergenceError) as err:
        picard_solve(b, SolverConfig(n_modes=16))
    exc = err.value
    assert isinstance(exc.__cause__, DivergentTailError)
    assert exc.iteration >= 1
    assert exc.report is not None and not exc.report.converged
    assert exc.report.iterations == exc.iteration
    assert len(exc.report.increments) == exc.iteration - 1
    cause = exc.__cause__
    assert cause.exponent > -1.0
    # The vorticity stack's row 0 (mode 1) diverges: its kernel is zeta_1^+.
    assert cause.row == 0
    assert cause.zeta == pytest.approx(zeta_pair(1.8, 0.5, 1)[0], rel=1e-12)
    assert "kernel row 0, zeta=0.4579" in str(exc)


def test_weak_flux_reproducer_converges():
    # A weak-flux trace whose vorticity tail falls below one ulp of its
    # row: that rounding noise must not be read as a diverging power.
    for n_max, cfg in ((12, SolverConfig(n_modes=12, nodes_per_decade=96)),
                       (16, SolverConfig(n_modes=16))):
        sol, rep = shoot_mu(bdry(n_max, 1.8, 0.5, 0.5, 0.01), cfg)
        assert rep.converged
        assert ns_residual(sol) < 1e-6
    _, rep = picard_solve(bdry(16, 1.8, 0.5, 0.5, 0.01),
                          SolverConfig(n_modes=16))
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


def bank_trace(trace, n_max):
    phi0, mu0, vr, vt = BANK_TRACES[trace]
    r = np.zeros(n_max + 1, complex)
    t = np.zeros(n_max + 1, complex)
    r[1:4], t[1:4] = vr, vt
    return BoundarySpectrum(n_max, r, t, phi0, mu0, mu0)


@pytest.mark.parametrize("trace", sorted(BANK_TRACES))
def test_bank_traces_converge_under_refinement(trace):
    # Refining the grid must not turn rounding noise in a tail into a
    # divergence; mu then settles at the rule's order and the residual
    # falls with every doubling.
    spec = bank_trace(trace, 12)
    mus, residuals = [], []
    for npd in (96, 192, 384):
        sol, rep = shoot_mu(spec, SolverConfig(n_modes=12,
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
        solution, report = picard_solve(boundary.with_mu(mu), config)
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
    return BoundarySpectrum.from_modes(n_max, 1.0, 5.0, 5.0, vr={1: 0.01},
                                       vtheta={1: 0.01j})


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
    # Each loop stops within tol_fp of its fixed point in the contraction
    # norm, which resolves row n only to tol_fp (1 + n)^-4 at r >= 1: each
    # row agrees to 1e-8 of its maximum or to twice that, whichever is
    # larger (mode 6 of the test_solver trace peaks at 4.5e-11).
    diff = sol.gamma - ref_sol.gamma
    n = np.arange(diff.shape[0])[:, None]
    rowmax = np.abs(ref_sol.gamma).max(axis=1, keepdims=True)
    bound = np.maximum(1e-8 * rowmax, 2 * CFG.tol_fp * (1.0 + n) ** -4)
    assert (np.abs(diff) <= bound).all()
    # one linear solve per step: the first has no sources
    assert calls[0] == len(rep.mu_history) == rep.iterations + 1
    assert rep.mu_history[0] == boundary.mu and rep.mu_history[-1] == rep.mu
    assert len(rep.increments) == rep.iterations
    assert calls[0] < nested_calls
    # The whole stack is within 2 tol_fp of the fixed point at its own mu.
    # Against the nested reference it is not: the two loops close mu
    # within tol_mu but 2.6e-10 apart, which alone moves the stack by
    # 1.4e-11 in the norm.
    fixed, _ = picard_solve(boundary.with_mu(rep.mu), CFG)
    assert picard_norm(sol.grid, sol.gamma - fixed.gamma,
                       rep.alpha) <= 2 * CFG.tol_fp


def test_fixed_point_bound_factor():
    bound = hamelflow.solve._fixed_point_bound
    assert np.isnan(bound([]))
    # fewer than three increments: the increment itself
    assert bound([1e-3]) == 1e-3 and bound([1e-3, 1e-6]) == 1e-6
    # q = 0.3 + 0.3 and q = 2 + 2, both >= 1/2: the increment itself
    assert bound([1.0, 0.3, 0.09]) == 0.09
    assert bound([1.0, 2.0, 4.0]) == 4.0
    # q = 0.005 + 0.005 = 0.01
    assert bound([1.0, 5e-3, 2.5e-5]) == pytest.approx(2.5e-5 * 0.01 / 0.99,
                                                       rel=1e-12)
    # q takes both ratios, whichever is the larger: 0.1 + 0.01 either way,
    # and 0.6 + 0.01 >= 1/2 although the last ratio is 0.01
    for increments in ([1.0, 0.1, 1e-3], [1.0, 0.01, 1e-3]):
        assert bound(increments) == pytest.approx(1e-3 * 0.11 / 0.89,
                                                  rel=1e-12)
    assert bound([1.0, 0.6, 0.006]) == 0.006


@pytest.mark.parametrize("boundary", [bdry(8, 1.0, 5.0, 5.0, 0.01),
                                      bdry(8, 2.5, 0.2, 0.2, 0.01)],
                         ids=["shoot_mu", "picard_solve"])
def test_loop_stops_at_the_first_step_that_passes(boundary):
    # The stop, recomputed from the report at every step: it failed at
    # each step before the last and passed at the last.
    shoot = not circulation_is_free(boundary.phi0)
    _, rep = (shoot_mu if shoot else picard_solve)(boundary, CFG)
    last = rep.iterations
    mus = rep.mu_history if shoot else [boundary.mu] * (last + 1)

    def passes(k):
        g = mus[k + 1] - mus[k] if k < last else rep.shoot_residual
        bound = hamelflow.solve._fixed_point_bound(rep.increments[:k])
        return (bound < CFG.tol_fp
                and (not shoot
                     or abs(g) <= CFG.tol_mu * max(1.0, abs(mus[k]))))

    assert [passes(k) for k in range(last + 1)] == [False] * last + [True]
    assert rep.fixed_point_bound == hamelflow.solve._fixed_point_bound(
        rep.increments)


@pytest.mark.parametrize("trace", sorted(BANK_TRACES))
def test_stop_is_within_tol_fp_of_the_fixed_point(trace):
    # The same loop run on to a 100x tighter tol_fp goes through the same
    # steps; the iterate it stopped at lies within tol_fp of where that
    # run ends, in the norm the stop controls.
    spec = bank_trace(trace, 8)
    sol, rep = shoot_mu(spec, CFG)
    assert rep.fixed_point_bound < CFG.tol_fp
    assert fixed_point_residual(sol) < 2.0 * CFG.tol_fp
    on = SolverConfig(n_modes=8, nodes_per_decade=48, tol_fp=CFG.tol_fp / 100)
    ref, ref_rep = shoot_mu(spec, on)
    assert ref_rep.mu_history[:len(rep.mu_history)] == rep.mu_history
    assert picard_norm(sol.grid, sol.gamma - ref.gamma, rep.alpha) < CFG.tol_fp


def strong_trace(scale):
    # A weak-flux trace with O(0.1-0.2) modes 1-3 on which |g| falls by
    # less than half per step for several steps.
    vr = np.zeros(9, complex)
    vt = np.zeros(9, complex)
    vr[1:4] = [-0.00363 - 0.184j, 0.000575 - 0.0412j, -0.155 - 0.0695j]
    vt[1:4] = [0.0591 + 0.106j, 0.189 - 0.0431j, -0.112 - 0.11j]
    return BoundarySpectrum(8, scale * vr, scale * vt, 1.39, 1.82, 1.82)


@pytest.mark.parametrize("scale", [1.0, 1.4, 1.6])
def test_shooting_closes_strong_traces(scale):
    # mu <- mu + g closes the circulation on traces where |g| contracts
    # slowly; at scale 1.6 the nested reference itself stops on a
    # divergent tail, so the solution is checked directly instead.
    b = strong_trace(scale)
    sol, rep = shoot_mu(b, CFG)
    assert rep.converged
    assert rep.warnings == []
    assert len(rep.mu_history) == rep.iterations + 1
    assert rep.fixed_point_bound < CFG.tol_fp
    assert fixed_point_residual(sol) < 2.0 * CFG.tol_fp
    if scale < 1.5:
        _, ref = nested_shoot_mu(b, CFG)
        assert abs(rep.mu - ref.mu) <= 2 * CFG.tol_mu * max(1.0, abs(ref.mu))
    else:
        assert ns_residual(sol) < 1e-4


@pytest.mark.parametrize("field, value", [
    ("max_iter", 0), ("max_iter", -3), ("tol_fp", 0.0), ("tol_fp", -1e-12),
    ("tol_mu", 0.0), ("tol_mu", -1e-10)])
def test_solver_config_rejects_budgets_the_loop_cannot_run(field, value):
    with pytest.raises(ValueError):
        SolverConfig(**{field: value})


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
        _, rep = picard_solve(BoundarySpectrum(n_max, r, t, phi0, mu, mu),
                              cfg)
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
