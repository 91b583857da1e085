"""Physical-space diagnostics: FD stencils, residuals, fits."""

import dataclasses

import numpy as np
import pytest

from hamelflow import (BoundarySpectrum, ReferenceFlow, SolverConfig,
                       asymptotic_circulation, build_grid, compute_sources,
                       decay_fit, derivative_consistency, interior,
                       log_derivatives, mode_ode_residuals,
                       ns_residual, picard_solve, reconstruct, shoot_mu,
                       solve_linear, zeta_pair)
from hamelflow.field import _fd_radial

FLOW = ReferenceFlow(2.5, 0.2)


def bdry(n_max, vr=None, vt=None):
    vr_a = np.zeros(n_max + 1, complex)
    vt_a = np.zeros(n_max + 1, complex)
    if vr:
        for n, v in vr.items():
            vr_a[n] = v
    if vt:
        for n, v in vt.items():
            vt_a[n] = v
    return BoundarySpectrum(n_max, vr_a, vt_a, FLOW.phi0, FLOW.mu, FLOW.mu)


def solved(eps=0.01):
    cfg = SolverConfig(n_modes=8, nodes_per_decade=48)
    b = bdry(8, vr={2: eps}, vt={1: eps})
    sol, rep = picard_solve(FLOW, b, cfg)
    assert rep.converged
    return sol


def test_log_derivative_stencils_are_fourth_order():
    # On f = r^q the log-coordinate derivatives are q f and q^2 f.
    q = -3.0
    errs = {}
    for npd in (32, 64):
        grid = build_grid(1e4, npd)
        f = grid.r ** q
        d1, d2 = log_derivatives(grid, f)
        c = interior(grid)
        e1 = np.abs(d1[0] - q * f[c]).max() / np.abs(q * f[c]).max()
        e2 = np.abs(d2[0] - q * q * f[c]).max() / np.abs(q * q * f[c]).max()
        errs[npd] = (e1, e2)
    assert errs[64][0] < 1e-5
    assert errs[64][1] < 1e-5
    assert errs[32][0] / errs[64][0] > 10.0
    assert errs[32][1] / errs[64][1] > 10.0


def test_zero_field_scores_zero_residual():
    grid = build_grid(1e3, 24)
    sol = solve_linear(FLOW, grid, bdry(4))
    assert mode_ode_residuals(sol) == (0.0, 0.0)


def looped_mode_ode_residuals(solution, sources):
    """The residuals formed one mode n at a time."""
    grid, flow = solution.grid, solution.flow
    c = interior(grid)
    r = grid.r[c]
    F = sources.F
    g1, g2 = _fd_radial(grid, solution.gamma)
    w1, w2 = _fd_radial(grid, solution.w)
    res_g = scale_g = res_w = scale_w = 0.0
    for n in range(solution.n_max + 1):
        lam = 1j * n * flow.mu + n * n
        terms_g = (g2[n], g1[n] / r,
                   -(n * n) * solution.gamma[n][c] / r**2, solution.w[n][c])
        terms_w = (w2[n], (flow.phi0 + 1.0) * w1[n] / r,
                   -lam * solution.w[n][c] / r**2, -F[n][c])
        res_g = max(res_g, float(np.abs(sum(terms_g)).max()))
        res_w = max(res_w, float(np.abs(sum(terms_w)).max()))
        scale_g = max(scale_g, max(float(np.abs(t).max()) for t in terms_g))
        scale_w = max(scale_w, max(float(np.abs(t).max()) for t in terms_w))
    return res_g / scale_g, res_w / scale_w


def test_stacked_residuals_are_bitwise_the_mode_loop():
    # positive and negative mu, fixed-mu and shot solutions
    cfg = SolverConfig(n_modes=8, nodes_per_decade=48)
    spec = lambda phi0, mu: BoundarySpectrum(
        8, np.eye(9, dtype=complex)[2] * 0.01,
        np.eye(9, dtype=complex)[1] * 0.01, phi0, mu, mu)
    sols = [solved(),
            picard_solve(ReferenceFlow(2.5, -0.3), spec(2.5, -0.3), cfg)[0],
            shoot_mu(spec(1.5, 1.0), cfg)[0]]
    for sol in sols:
        sources = compute_sources(sol)
        assert mode_ode_residuals(sol, sources) == \
            looped_mode_ode_residuals(sol, sources)
        # ns_residual forms the vorticity half alone, to the same bits
        assert ns_residual(sol) == looped_mode_ode_residuals(sol, sources)[1]
        assert mode_ode_residuals(sol) == looped_mode_ode_residuals(
            sol, dataclasses.replace(sources, F=0.0 * sources.F))


def test_converged_solve_diagnostics():
    sol = solved()
    assert ns_residual(sol) < 1e-4
    assert derivative_consistency(sol) < 1e-4


def test_residual_detects_corrupted_stream():
    sol = solved()
    base = ns_residual(sol)
    bad = dataclasses.replace(sol, gamma=sol.gamma * 1.05)
    assert ns_residual(bad) / base > 5.0


def test_divergence_detects_inconsistent_derivatives():
    # The mode-wise divergence i n (d_r gamma_n - FD d_r gamma_n) / r is
    # the stream part of the derivative mismatch.
    sol = solved()
    base = derivative_consistency(sol)
    bad = dataclasses.replace(sol, dgamma=sol.dgamma * 1.01)
    assert derivative_consistency(bad) / base > 100.0


def test_asymptotic_circulation_fit():
    sol = solved()
    fit = asymptotic_circulation(sol)
    assert abs(fit.mu_effective - FLOW.mu) < 1e-5
    assert fit.rms < 1e-6

    # A mean stream with no swirl perturbation carries exactly mu at every
    # radius; the fit must return it without extrapolating.
    dg = sol.dgamma.copy()
    dg[0] = 0.0
    flat = dataclasses.replace(sol, dgamma=dg)
    exact = asymptotic_circulation(flat)
    assert abs(exact.mu_effective - FLOW.mu) < 1e-14
    assert exact.decay_exponent == float("inf")
    assert exact.amplitude == 0.0
    assert exact.rms == 0.0


@pytest.mark.parametrize("r_max", [1e4, 1e6, 1e25])
@pytest.mark.parametrize("q", [0.05, 1.0, 4.0, 8.0])
def test_circulation_fit_matches_least_squares(q, r_max):
    # y = a + b r^-q + 1e-9 noise.  At r_max = 1e25 the unscaled sum of
    # (r^-8)^2 underflows to 0: the fit divides r^-q by its largest value.
    grid = build_grid(r_max, 16)
    sol = solve_linear(FLOW, grid, bdry(1))
    r = grid.r
    r0 = r[r >= r_max / 100.0][0]
    a, b = 0.3, 0.05 * r0 ** q
    noise = 1e-9 * np.random.default_rng(7).standard_normal(r.size)
    y = a + b * r ** -q + noise
    dg = sol.dgamma.copy()
    dg[0] = (FLOW.mu - y) / r
    fit = asymptotic_circulation(dataclasses.replace(sol, dgamma=dg))

    # lstsq on the same basis at the fitted q, r^-q scaled to at most 1
    tail = r >= r_max / 100.0
    basis = np.stack([np.ones(tail.sum()),
                      (r[tail] / r0) ** -fit.decay_exponent], axis=1)
    coef, *_ = np.linalg.lstsq(basis, y[tail], rcond=None)
    rss = np.sum((basis @ coef - y[tail]) ** 2)
    # worst over the twelve cases: 5.0e-16, 1.8e-14 and 2.0e-8
    assert abs(fit.mu_effective - coef[0]) <= 1e-14
    assert abs(fit.amplitude - coef[1] * r0 ** fit.decay_exponent) \
        <= 1e-12 * abs(b)
    assert abs(fit.rms ** 2 * tail.sum() - rss) <= 1e-6 * rss
    # and the search finds the planted power (3.6e-7 and 3.7e-9 at worst)
    assert abs(fit.decay_exponent - q) < 1e-5
    assert abs(fit.mu_effective - a) < 1e-8


def test_decay_fit_on_boundary_branch():
    # v*_theta,n = -i v*_r,n kills the vorticity amplitude: each stream mode
    # is a pure r^{-n} harmonic and the vorticity rows vanish.
    grid = build_grid(1e4, 48)
    sol = solve_linear(FLOW, grid, bdry(
        4, vr={1: 0.01, 2: 0.01, 3: 0.01},
        vt={1: -0.01j, 2: -0.01j, 3: -0.01j}))
    prof = decay_fit(sol)
    for n in (1, 2, 3):
        assert abs(prof.gamma_slopes[n] + n) < 1e-2
        assert np.abs(sol.w[n]).max() < 1e-13
    assert abs(prof.beta0 - 1.0) < 1e-2
    assert abs(prof.beta_sup1 - 2.0) < 1e-2


def test_decay_fit_on_vorticity_branch():
    # v*_theta,n = i (2 + zeta^-) v*_r,n / n kills the harmonic amplitude:
    # streams decay like r^{Re zeta^- + 2} and vorticity like r^{Re zeta^-}.
    grid = build_grid(1e4, 48)
    vr = {n: 0.01 for n in (1, 2, 3)}
    zm = zeta_pair(FLOW.phi0, FLOW.mu, np.arange(4))[1]
    vt = {n: 1j * (2.0 + zm[n]) * 0.01 / n for n in (1, 2, 3)}
    sol = solve_linear(FLOW, grid, bdry(4, vr=vr, vt=vt))
    prof = decay_fit(sol)
    for n in (1, 2, 3):
        assert abs(prof.gamma_slopes[n] - (zm[n].real + 2.0)) < 1e-2
        assert abs(prof.w_slopes[n] - zm[n].real) < 1e-2
        assert prof.gamma_slopes[n] <= prof.gamma_ceilings[n] + 0.05
        assert prof.w_slopes[n] <= prof.w_ceilings[n] + 0.05


def polyfit_slopes(solution):
    """decay_fit's slopes as np.polyfit fits, one mode at a time."""
    grid = solution.grid
    tail = grid.r >= grid.r_max / 100.0
    out = []
    for rows in (solution.gamma, solution.w):
        scale = np.abs(rows).max()
        slopes = np.full(len(rows), np.nan)
        for n, row in enumerate(rows):
            mask = tail & (np.abs(row) > 0.0)
            if np.abs(row).max() > 1e-13 * scale and mask.sum() >= 5:
                slopes[n] = np.polyfit(np.log(grid.r[mask]),
                                       np.log(np.abs(row[mask])), 1)[0]
        out.append(slopes)
    return out


def test_decay_slopes_match_polyfit():
    sol = solved()
    shot = shoot_mu(BoundarySpectrum(
        8, np.eye(9, dtype=complex)[2] * 0.01,
        np.eye(9, dtype=complex)[1] * 0.01, 1.5, 1.0, 1.0),
        SolverConfig(n_modes=8, nodes_per_decade=48))[0]
    # zero samples are left out of a row's fit, and a row with fewer than
    # five usable samples in the last two decades has no slope
    gamma = sol.gamma.copy()
    gamma[3, -40::2] = 0.0
    gamma[4, -100:-4] = 0.0
    holes = dataclasses.replace(sol, gamma=gamma)
    for s in (sol, shot, holes):
        prof = decay_fit(s)
        for got, ref in zip((prof.gamma_slopes, prof.w_slopes),
                            polyfit_slopes(s)):
            assert np.array_equal(np.isnan(got), np.isnan(ref))
            live = ~np.isnan(ref)
            assert np.all(np.abs(got[live] - ref[live])
                          <= 1e-12 * np.abs(ref[live]))
    assert np.isnan(decay_fit(holes).gamma_slopes[4])
    assert not np.isnan(decay_fit(holes).gamma_slopes[3])


def test_reconstructed_field_is_real_and_background_dominated():
    sol = solved(eps=1e-3)
    full = reconstruct(sol, n_theta=32)
    assert full.ur.shape == (sol.grid.n_nodes, 32)
    # At the boundary the radial velocity is -phi0 plus the O(eps) trace.
    assert np.abs(full.ur[0] + FLOW.phi0).max() < 0.05
    assert np.abs(full.utheta[0] - FLOW.mu).max() < 0.05


def looped_reconstruct(solution, n_theta):
    """The physical fields summed one mode n at a time."""
    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    r = solution.grid.r[:, None]
    flow = solution.flow
    ur = np.broadcast_to(-flow.phi0 / r, (r.size, n_theta)).copy()
    ut = np.broadcast_to(flow.mu / r, (r.size, n_theta)).copy()
    wf = np.broadcast_to(np.real(solution.w[0])[:, None],
                         (r.size, n_theta)).copy()
    ut -= np.real(solution.dgamma[0])[:, None]
    for n in range(1, solution.n_max + 1):
        phase = np.exp(1j * n * theta)[None, :]
        ur += 2.0 * np.real((1j * n) * solution.gamma[n][:, None] / r * phase)
        ut -= 2.0 * np.real(solution.dgamma[n][:, None] * phase)
        wf += 2.0 * np.real(solution.w[n][:, None] * phase)
    return ur, ut, wf


def test_reconstruct_matches_the_mode_loop():
    # One product per field sums the modes in another order than the loop:
    # the fields agree to a few roundings per mode of the largest value.
    cfg = SolverConfig(n_modes=8, nodes_per_decade=48)
    shot = shoot_mu(BoundarySpectrum(8, np.eye(9, dtype=complex)[2] * 0.01,
                                     np.eye(9, dtype=complex)[1] * 0.01,
                                     1.5, 1.0, 1.0), cfg)[0]
    for sol, n_theta in ((solved(), 32), (solved(), 48), (shot, 37)):
        full = reconstruct(sol, n_theta=n_theta)
        for got, want in zip((full.ur, full.utheta, full.w),
                             looped_reconstruct(sol, n_theta)):
            tol = 4 * sol.n_max * np.finfo(float).eps * np.abs(want).max()
            assert np.abs(got - want).max() <= tol
