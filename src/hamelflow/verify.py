"""Self-contained verification battery behind ``hamelflow verify``.

Every check is an independent oracle: closed-form responses for the mode
kernels, trace exactness, finite-difference ODE residuals, randomized
inequality suites, and a small end-to-end fixed point.  Checks are
deterministic for a given seed and report margins, not just booleans, so a
regression shows up as a shrinking margin before it becomes a failure.
The checks build their traces with ``BoundarySpectrum.from_modes``, so each
mean row is the spectrum's derived mu0 - mu.
"""

from __future__ import annotations

import numpy as np

from .field import decay_fit, mode_ode_residuals, ns_residual
from .flows import (ReferenceFlow, existence_condition,
                    re_zeta_minus_closed_form, rho_decay, zeta_pair)
from .grid import BoundarySpectrum, build_grid
from .linear import (SourceSpectrum, solve_gamma_zero, solve_linear,
                     solve_w_particular, solve_w_zero)
from .solve import (SolverConfig, fixed_point_residual, picard_solve, shoot_mu)
from .uniq import (_stacks, hardy_check, hardy_sharpness,
                   poincare_wirtinger_check, positivity_roots,
                   probe_q1_negativity, q_form, random_stream,
                   random_w_profile)

__all__ = ["run_battery"]


def _check(name, passed, metric, threshold, detail=""):
    return {"name": name, "passed": bool(passed), "metric": float(metric),
            "threshold": float(threshold), "detail": detail}


def check_exponent_identities(quick: bool):
    side = 12 if quick else 50
    phis = np.linspace(0.0, 4.0, side)
    mu = np.linspace(-8.0, 8.0, side)[:, None]
    ns = np.concatenate([np.arange(-32, 0), np.arange(1, 33)])
    worst_sum = 0.0
    worst_prod = 0.0
    worst_re = 0.0
    for phi0 in phis:
        zp, zm = zeta_pair(phi0, mu, ns)
        lam = 1j * ns * mu + ns.astype(float) ** 2
        scale = np.abs(lam) + 1.0
        worst_sum = max(worst_sum, float(np.abs(zp + zm + phi0).max()))
        worst_prod = max(worst_prod,
                         float((np.abs(zp * zm + lam) / scale).max()))
        worst_re = max(worst_re, float(np.abs(
            zm.real - re_zeta_minus_closed_form(phi0, mu, ns)).max()))
    metric = max(worst_sum, worst_prod, worst_re)
    return _check("exponent_identities", metric < 1e-12, metric, 1e-12,
                  f"sum {worst_sum:.2e}, product {worst_prod:.2e}, "
                  f"closed-form Re {worst_re:.2e}")


def check_existence_threshold():
    lo, hi = 0.0, 16.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if existence_condition(0.0, mid):
            hi = mid
        else:
            lo = mid
    target = 4.0 * np.sqrt(3.0)
    err = abs(hi - target)
    rho_err = abs(rho_decay(0.0, target) - 2.0)
    metric = max(err, rho_err)
    return _check("existence_threshold", err < 1e-9 and rho_err < 1e-12,
                  metric, 1e-9,
                  f"bisected {hi:.12f} vs 4*sqrt(3)={target:.12f}; "
                  f"rho at threshold off by {rho_err:.2e}")


MANUFACTURED_CASES = ((1, 2.5, 0.3, 2.5), (2, 2.5, 0.0, 3.0), (3, 3.0, 1.0, 4.0))


def manufactured_vorticity_error(grid, n, phi0, mu, a):
    """Relative sup error of the kernel response to C r^{-(a+2)}."""
    flow = ReferenceFlow(phi0, mu)
    # as Python complex: numpy's complex division rounds differently
    zp, zm = map(complex, zeta_pair(phi0, mu, n))
    c = a * a - a * phi0 - (1j * n * mu + n * n)
    f = c * grid.r ** (-(a + 2.0))
    w, dw = solve_w_particular(grid, flow, n, f)
    exact = -grid.r ** (-a) + (c / (zp - zm)) * grid.r ** zm / (a + zm)
    dexact = (a * grid.r ** (-a - 1.0)
              + (c / (zp - zm)) * zm * grid.r ** (zm - 1.0) / (a + zm))
    scale = np.abs(exact).max()
    err_w = np.abs(w - exact).max() / scale
    err_dw = np.abs(dw - dexact).max() / (np.abs(dexact).max())
    return max(float(err_w), float(err_dw))


def check_manufactured_modes():
    grid = build_grid(1e4, 128)
    worst = max(manufactured_vorticity_error(grid, *case)
                for case in MANUFACTURED_CASES)
    return _check("manufactured_mode_response", worst < 1e-6, worst, 1e-6,
                  f"{len(MANUFACTURED_CASES)} closed-form cases, worst "
                  f"relative error {worst:.2e}")


def check_manufactured_zero_mode():
    grid = build_grid(1e4, 128)
    phi0, b = 2.5, 5.0
    f0 = grid.r ** (-b)
    w, dw = solve_w_zero(grid, phi0, f0)
    exact_w = grid.r ** (2.0 - b) / ((b - 2.0) * (b - phi0 - 2.0))
    err_w = float(np.abs(w - exact_w).max() / np.abs(exact_w).max())
    exact_dw = (2.0 - b) * grid.r ** (1.0 - b) / ((b - 2.0) * (b - phi0 - 2.0))
    err_dw = float(np.abs(dw - exact_dw).max() / np.abs(exact_dw).max())
    g, dg = solve_gamma_zero(grid, grid.r ** (-3.0))
    err_g = float(np.abs(g - grid.r ** (-1.0)).max())
    err_dg = float(np.abs(dg + grid.r ** (-2.0)).max())
    metric = max(err_w, err_dw, err_g, err_dg)
    return _check("manufactured_zero_mode", metric < 1e-6, metric, 1e-6,
                  f"vorticity {err_w:.2e}, slope {err_dw:.2e}, "
                  f"stream {err_g:.2e}/{err_dg:.2e}")


def _trace_errors(solution):
    b = solution.boundary
    n = np.arange(1, solution.n_max + 1)
    scale = np.maximum(1.0, np.maximum(np.abs(b.vr[n]), np.abs(b.vtheta[n])))
    err = np.abs([1j * n * solution.gamma[n, 0] - b.vr[n],
                  -solution.dgamma[n, 0] - b.vtheta[n]])
    worst = np.max(err / scale, initial=0.0)
    if solution.flow.phi0 > 2.0:
        worst = max(worst, abs(-solution.dgamma[0, 0].real - b.vtheta[0].real)
                    / max(1.0, abs(b.vtheta[0])))
    return float(worst)


def check_trace_exactness(quick: bool):
    grid = build_grid(1e4, 48 if quick else 64)
    n_max = 4
    worst = 0.0
    details = []
    for phi0, mu in ((2.5, 0.2), (3.2, 0.0)):
        flow = ReferenceFlow(phi0, mu)
        boundary = BoundarySpectrum.from_modes(
            n_max, phi0, mu0=mu + 0.1, mu=mu,
            vr={1: 0.02 + 0.01j, 2: 0.01, 3: 0.005 - 0.002j},
            vtheta={1: 0.01, 2: -0.01j, 3: 0.004, 4: 0.002})
        n = np.arange(n_max + 1)[:, None]
        F = (0.01 + 0.002j * n) * grid.r ** (-5.5 - 0.3 * n)
        sol = solve_linear(flow, grid, boundary, SourceSpectrum(n_max, F))
        err = _trace_errors(sol)
        worst = max(worst, err)
        res3 = bool(sol.resonant[3])
        details.append(f"phi0={phi0}: {err:.2e} (mode-3 resonant: {res3})")
    return _check("trace_exactness", worst < 1e-8, worst, 1e-8,
                  "; ".join(details))


def check_ode_residuals(quick: bool):
    grid = build_grid(1e4, 48 if quick else 64)
    n_max = 4
    phi0, mu = 2.5, 0.2
    flow = ReferenceFlow(phi0, mu)
    boundary = BoundarySpectrum.from_modes(n_max, phi0, mu0=0.3, mu=mu,
                                           vr={1: 0.02, 2: 0.01j},
                                           vtheta={1: 0.01, 3: 0.004})
    n = np.arange(n_max + 1)[:, None]
    F = (0.01 + 0.001j * n) * grid.r ** (-5.5 - 0.2 * n)
    sources = SourceSpectrum(n_max, F)
    sol = solve_linear(flow, grid, boundary, sources)
    res_g, res_w = mode_ode_residuals(sol, sources)
    metric = max(res_g, res_w)
    return _check("ode_residuals", metric < 1e-4, metric, 1e-4,
                  f"stream {res_g:.2e}, vorticity {res_w:.2e}")


def check_picard_fixed_point(quick: bool):
    # r_max = 1e6: the n = 1 stream mode mixes exponents -1 and roughly
    # -0.85, and the fitted slope needs a few extra decades to settle onto
    # the shallower one.
    config = SolverConfig(n_modes=8 if quick else 16,
                          nodes_per_decade=48 if quick else 64, r_max=1e6)
    boundary = BoundarySpectrum.from_modes(config.n_modes, 2.5, mu0=0.2,
                                           mu=0.2, vr={2: 0.01},
                                           vtheta={1: 0.01})
    sol, rep = picard_solve(boundary, config)
    fp = fixed_point_residual(sol)
    ns = ns_residual(sol)
    prof = decay_fit(sol)
    slack = np.nanmax(prof.gamma_slopes - prof.gamma_ceilings)
    ok = (rep.converged and fp < 2.0 * config.tol_fp and ns < 1e-4
          and slack < 0.05)
    return _check("picard_fixed_point", ok, max(fp / (2 * config.tol_fp),
                                                ns / 1e-4), 1.0,
                  f"{rep.iterations} iterations, contraction "
                  f"{rep.contraction_ratio:.3f}, fp residual {fp:.2e}, "
                  f"transport residual {ns:.2e}, worst slope slack "
                  f"{slack:+.3f}")


def check_shooting(quick: bool):
    config = SolverConfig(n_modes=8 if quick else 12,
                          nodes_per_decade=48 if quick else 64)
    phi0, mu0 = 1.0, 5.0
    boundary = BoundarySpectrum.from_modes(config.n_modes, phi0, mu0=mu0,
                                           mu=mu0, vr={1: 0.01},
                                           vtheta={1: 0.01j})
    sol, rep = shoot_mu(boundary, config)
    shift = abs(rep.mu - mu0)
    ok = rep.shoot_residual < config.tol_mu * max(1.0, abs(rep.mu))
    return _check("circulation_shooting", ok, rep.shoot_residual, config.tol_mu,
                  f"mu = mu0 {rep.mu - mu0:+.3e} after "
                  f"{len(rep.mu_history)} steps; quadratic shift "
                  f"{shift:.3e}")


def check_hardy(quick: bool, seed: int):
    rng = np.random.default_rng(seed)
    grid = build_grid(1e4, 32)
    n_profiles = 200 if quick else 1000
    alphas = (1.5, 2.0, 3.0)
    violations = 0
    worst = 0.0
    for size in _stacks(n_profiles):
        w, dw = random_w_profile(grid, rng, size=size)
        for alpha in alphas:
            res = hardy_check(grid, w, dw, alpha)
            violations += int(np.count_nonzero(~res.ok))
            worst = max(worst, float(res.ratio.max()))
    sharp = hardy_sharpness()
    ok = violations == 0 and sharp.ratio > 0.9
    return _check("hardy_inequality", ok, sharp.ratio, 0.9,
                  f"{n_profiles} profiles x {len(alphas)} weights, "
                  f"{violations} violations, max ratio {worst:.4f}, "
                  f"sharpness {sharp.ratio:.4f}")


def check_qforms(quick: bool, seed: int):
    rng = np.random.default_rng(seed + 1)
    grid = build_grid(1e4, 32)
    n_streams = 20 if quick else 50
    worst_q1 = np.inf
    worst_gap = np.inf
    worst_c = np.inf
    worst_pw = np.inf
    modes = (1, 2, 3, 4, 5)
    for phi0 in (2.2, 2.5, 3.0):
        for size in _stacks(n_streams, per_sample=len(modes)):
            stream = random_stream(grid, rng, modes, size=size)
            res = q_form(stream, phi0)
            worst_q1 = min(worst_q1, float((res.q_1 / res.scale).min()))
            worst_gap = min(worst_gap, float(
                ((res.q_sup1 - res.lower_bound) / res.scale).min()))
            worst_c = min(worst_c, float(res.c_measured.min()))
            worst_pw = min(worst_pw,
                           float(poincare_wirtinger_check(stream).min()))
    ok = (worst_q1 >= -1e-8 and worst_gap >= -1e-8 and worst_c >= 0.2
          and worst_pw >= -1e-12)
    return _check("quadratic_forms", ok, worst_c, 0.2,
                  f"min Q1 {worst_q1:.2e}, min gap {worst_gap:.2e}, "
                  f"min c {worst_c:.4f}, min mode margin {worst_pw:.2e}")


def check_positivity_window():
    worst = 0.0
    for phi0 in (2.2, 2.5, 3.0):
        roots = positivity_roots(phi0)
        expected = (3.0, 2.0 * phi0 - 1.0)
        if len(roots) != 2:
            return _check("positivity_window", False, float("inf"), 1e-6,
                          f"phi0={phi0}: found {len(roots)} roots")
        worst = max(worst, abs(roots[0] - expected[0]),
                    abs(roots[1] - expected[1]))
    return _check("positivity_window", worst < 1e-6, worst, 1e-6,
                  f"roots match (3, 2 phi0 - 1) within {worst:.2e}")


def check_q1_probe(quick: bool, seed: int):
    probe = probe_q1_negativity(3.2, n_samples=200 if quick else 1000,
                                seed=seed + 2)
    ok = not probe.found_negative
    return _check("q1_negativity_probe", ok, probe.min_value, 0.0,
                  f"verdict {probe.verdict} after {probe.n_samples} samples, "
                  f"min relative Q1 {probe.min_value:.3e}")


def run_battery(quick: bool = False, seed: int = 0) -> dict:
    checks = [
        check_exponent_identities(quick),
        check_existence_threshold(),
        check_manufactured_modes(),
        check_manufactured_zero_mode(),
        check_trace_exactness(quick),
        check_ode_residuals(quick),
        check_picard_fixed_point(quick),
        check_shooting(quick),
        check_hardy(quick, seed),
        check_qforms(quick, seed),
        check_positivity_window(),
        check_q1_probe(quick, seed),
    ]
    return {
        "quick": bool(quick),
        "seed": int(seed),
        "checks": checks,
        "all_passed": all(c["passed"] for c in checks),
    }
