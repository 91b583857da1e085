"""Acceptance battery: ten headline behaviors, one test (and verdict) each.

Every test asserts the stated tolerance and its runtime budget, and prints a
one-line summary that pytest shows under -rA or on failure.
"""

import time

import numpy as np
import pytest

from hamelflow import (BoundarySpectrum, ReferenceFlow, SolverConfig,
                       alpha_window, asymptotic_circulation, branch_sweep,
                       build_grid, decay_fit, existence_condition,
                       ns_residual, re_zeta_minus_closed_form, reconstruct,
                       shoot_mu, solve_linear, synthesize_boundary, zeta_pair)
from hamelflow.solve import picard_solve
from hamelflow.uniq import (_SHARP_GRID, _high_mode_eigenvalues, hardy_check,
                            hardy_sharpness, positivity_factor,
                            positivity_roots, probe_q1_negativity, q_form,
                            random_stream, random_w_profile)
from hamelflow.verify import (_MANUFACTURED_FLOWS, _manufactured_errors,
                              check_manufactured_solution, check_ode_residuals)

MODULE_T0 = time.perf_counter()


def field_row(solution, radius):
    """(u_r, u_theta, w) on 256 angles at the node nearest ``radius``."""
    full = reconstruct(solution, 256)
    j = int(np.argmin(np.abs(np.log(full.r) - np.log(radius))))
    return np.concatenate([full.ur[j], full.utheta[j], full.w[j]])


@pytest.fixture(scope="module")
def branch_members():
    boundary = BoundarySpectrum.from_modes(8, 2.5, 0.2, 0.2, vr={2: 0.01},
                                           vtheta={1: 0.01})
    cfg = SolverConfig(n_modes=8, nodes_per_decade=48)
    t0 = time.perf_counter()
    members = branch_sweep(boundary, [0.15, 0.2, 0.25], cfg)
    return members, time.perf_counter() - t0


@pytest.fixture(scope="module")
def shooting_runs():
    cfg = SolverConfig(n_modes=8, nodes_per_decade=48)
    runs = {}
    t0 = time.perf_counter()
    for eps in (1e-2, 5e-3):
        boundary = BoundarySpectrum.from_modes(8, 1.0, 5.0, 5.0, vr={2: eps},
                                               vtheta={1: eps})
        sol, rep = shoot_mu(boundary, cfg)
        runs[eps] = (sol, rep)
    return runs, time.perf_counter() - t0


def test_criterion_01_existence_flip_is_bisected_to_the_closed_form():
    t0 = time.perf_counter()
    target = 4.0 * np.sqrt(3.0)
    lo, hi = 6.0, 8.0
    assert not existence_condition(0.0, lo)
    assert existence_condition(0.0, hi)
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if existence_condition(0.0, mid):
            hi = mid
        else:
            lo = mid
    root = 0.5 * (lo + hi)
    elapsed = time.perf_counter() - t0
    assert abs(root - target) < 1e-9
    assert elapsed < 1.0
    print(f"criterion 1: flip at |mu|={root:.12f}, "
          f"|err|={abs(root - target):.2e}, {elapsed:.3f}s")


def test_criterion_02_exponent_identities_across_the_parameter_sweep():
    t0 = time.perf_counter()
    worst = 0.0
    n = np.arange(1, 33)
    for phi0 in np.linspace(0.0, 6.0, 50):
        for mu in np.linspace(-10.0, 10.0, 50):
            zp, zm = zeta_pair(phi0, mu, n)
            lam = 1j * n * mu + n * n
            scale = np.maximum(np.maximum(1.0, np.abs(zp)), np.abs(lam))
            # the product by components: numpy's complex array multiply may
            # fuse into FMA, which moves the worst defect with the CPU
            prod = (zp.real * zm.real - zp.imag * zm.imag
                    + 1j * (zp.real * zm.imag + zp.imag * zm.real))
            worst = max(
                worst,
                float((np.abs(zp + zm + phi0) / scale).max()),
                float((np.abs(prod + lam) / scale).max()),
                float((np.abs(zm.real - re_zeta_minus_closed_form(phi0, mu, n))
                       / scale).max()))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-12
    assert elapsed < 5.0
    print(f"criterion 2: 50x50x32 sweep, worst identity defect "
          f"{worst:.2e}, {elapsed:.2f}s")


def test_criterion_03_manufactured_kernel_responses_converge():
    # The battery's manufactured flows through solve_linear: per flow, the
    # gated error (w and dw of every listed mode, gamma_0 and dgamma_0).
    t0 = time.perf_counter()
    errs = {}
    for npd in (128, 256):
        grid = build_grid(1e4, npd)
        errs[npd] = []
        for phi0, mu, powers in _MANUFACTURED_FLOWS:
            gated, trace, nonzero, *_ = _manufactured_errors(grid, phi0, mu,
                                                             powers)
            assert trace < 1e-8 and nonzero == 0
            errs[npd].append(gated)
    elapsed = time.perf_counter() - t0
    for npd in (128, 256):
        assert max(errs[npd]) < 1e-6
    for coarse, fine in zip(errs[128], errs[256]):
        assert fine <= max(coarse / 2 ** 3.5, 1e-12)
    assert elapsed < 30.0
    print(f"criterion 3: worst manufactured error {max(errs[128]):.2e} "
          f"(coarse) / {max(errs[256]):.2e} (fine), {elapsed:.2f}s")


def test_criterion_04_fd_residuals_on_the_linear_verify_cases():
    t0 = time.perf_counter()
    residuals = check_ode_residuals()
    manufactured = check_manufactured_solution()
    elapsed = time.perf_counter() - t0
    assert residuals["passed"]
    assert residuals["metric"] < 1e-4
    assert manufactured["passed"]
    assert elapsed < 30.0
    print(f"criterion 4: residual {residuals['metric']:.2e}, "
          f"manufactured solution {manufactured['metric']:.2e}, "
          f"{elapsed:.2f}s")


def test_criterion_05_branch_members_share_the_trace_but_not_the_field(
        branch_members):
    members, elapsed = branch_members
    assert [m.mu for m in members] == [0.15, 0.2, 0.25]
    assert all(m.solution is not None for m in members)

    traces = [np.concatenate(synthesize_boundary(m.solution.boundary, 256))
              for m in members]
    fields = [field_row(m.solution, 10.0) for m in members]
    worst_trace = 0.0
    best_field_gap = np.inf
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            worst_trace = max(worst_trace,
                              float(np.abs(traces[i] - traces[j]).max()))
            best_field_gap = min(best_field_gap,
                                 float(np.abs(fields[i] - fields[j]).max()))
    assert worst_trace < 1e-6
    assert best_field_gap > 1e-3
    for m in members:
        assert abs(asymptotic_circulation(m.solution)) <= 0.05 * abs(m.mu)
    assert elapsed < 300.0
    print(f"criterion 5: trace sup-diff {worst_trace:.2e}, field gap at "
          f"r=10 {best_field_gap:.2e}, {elapsed:.2f}s")


def test_criterion_06_circulation_shift_scales_quadratically(shooting_runs):
    runs, elapsed = shooting_runs
    shifts = {}
    for eps, (sol, rep) in runs.items():
        assert rep.converged
        assert abs(rep.shoot_residual) < 1e-8
        shifts[eps] = abs(rep.mu - 5.0)
    ratio = shifts[1e-2] / shifts[5e-3]
    assert 2.0 < ratio < 8.0
    assert elapsed < 300.0
    print(f"criterion 6: shift ratio {ratio:.4f} for eps halving, "
          f"{elapsed:.2f}s")


def test_criterion_07_decay_rates_match_the_exponents(branch_members):
    t0 = time.perf_counter()
    flow = ReferenceFlow(2.5, 0.2)
    grid = build_grid(1e6, 24)
    boundary = BoundarySpectrum.from_modes(
        4, 2.5, 0.2, 0.2, vr={1: 0.01, 2: 0.008, 3: 0.006, 4: 0.004},
        vtheta={1: 0.005, 2: 0.004j, 3: 0.003, 4: 0.002})
    prof = decay_fit(solve_linear(flow, grid, boundary))
    worst = 0.0
    for n in range(1, 5):
        zm = zeta_pair(flow.phi0, flow.mu, n)[1]
        worst = max(worst,
                    abs(prof.gamma_slopes[n] - max(-n, zm.real + 2.0)),
                    abs(prof.w_slopes[n] - zm.real))
    assert worst < 0.05

    members, _ = branch_members
    alpha, feasible = alpha_window(2.5, 0.2)
    assert feasible
    nl = decay_fit(members[1].solution)
    active = nl.gamma_slopes[1:][~np.isnan(nl.gamma_slopes[1:])]
    assert active.size > 0
    assert np.all(active <= -alpha + 0.05)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"criterion 7: worst homogeneous slope defect {worst:.3f}, "
          f"nonlinear slopes below {-alpha + 0.05:.3f}, {elapsed:.2f}s")


def test_criterion_08_hardy_constant_sharp():
    t0 = time.perf_counter()
    sharp = hardy_sharpness()
    err = max(abs(e - c) for c, e in sharp.values())
    grid = build_grid(*_SHARP_GRID)
    w, dw = random_w_profile(grid, np.random.default_rng(2026), size=1000)
    best = {a: hardy_check(grid, w, dw, a).ratio.max() for a in sharp}
    elapsed = time.perf_counter() - t0
    assert err < 1e-3
    assert all(best[a] < c for a, (c, _) in sharp.items())
    assert elapsed < 30.0
    print(f"criterion 8: eigenvalues within {err:.1e} of the closed forms "
          f"{[round(c, 5) for c, _ in sharp.values()]}; 1000 profiles reach "
          f"{[round(float(v), 4) for v in best.values()]}, {elapsed:.2f}s")


def test_criterion_09_quadratic_form_split():
    t0 = time.perf_counter()
    grid = build_grid(*_SHARP_GRID)
    phi0s = (2.1, 2.5, 3.0)
    least = _high_mode_eigenvalues(phi0s)
    assert least.min() >= 0.2
    for phi0, closed in ((3.2, 1.26538), (4.6, -0.13462)):
        c, e = probe_q1_negativity(phi0)
        assert abs(c - closed) < 1e-5 and abs(e - c) < 1e-3
        assert np.sign(e) == np.sign(closed)
    stream = random_stream(grid, np.random.default_rng(2026), size=500)
    for phi0, row in zip(phi0s, least):
        res = q_form(stream, phi0)
        assert np.all(np.abs(res.q_plus - res.q_1 - res.q_sup1)
                      <= 1e-10 * res.scale)
        assert np.all(res.q_1 >= -1e-12 * res.scale)
        assert np.all(res.q_sup1 >= res.lower_bound - 1e-10 * res.scale)
        assert res.c_measured.min() >= row.min()
    for phi0 in phi0s:
        roots = positivity_roots(phi0)
        assert roots == sorted((3.0, 2.0 * phi0 - 1.0))
        assert max(abs(positivity_factor(a, phi0)) for a in roots) < 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"criterion 9: least Q_sup1 eigenvalue {least.min():.4f}, Q1 "
          f"sign change between phi0 3.2 and 4.6; 500 streams x 3 "
          f"backgrounds above it, {elapsed:.2f}s")


def test_criterion_10_residuals_small_and_refining(branch_members,
                                                   shooting_runs):
    members, t5 = branch_members
    runs, t6 = shooting_runs
    solves = [m.solution for m in members] + [sol for sol, _ in runs.values()]
    residuals = [ns_residual(s) for s in solves]
    assert max(residuals) < 1e-4

    boundary = BoundarySpectrum.from_modes(8, 2.5, 0.2, 0.2, vr={2: 0.01},
                                           vtheta={1: 0.01})
    series = {}
    for npd in (48, 96):
        cfg = SolverConfig(n_modes=8, nodes_per_decade=npd)
        sol, rep = picard_solve(boundary, cfg)
        assert rep.converged
        series[npd] = ns_residual(sol)
    ratio = series[48] / series[96]
    assert ratio > 3.0
    total = time.perf_counter() - MODULE_T0
    assert total < 300.0
    print(f"criterion 10: worst residual {max(residuals):.2e}, refinement "
          f"ratio {ratio:.2f}, module total {total:.1f}s")
