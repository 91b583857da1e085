"""Self-contained verification battery behind ``hamelflow verify``.

Every check is an independent oracle: a manufactured solution of the whole
linear problem, run through ``solve_linear`` (every mode's profiles and
its trace against a closed form), finite-difference ODE residuals, a small
end-to-end fixed point, and the uniqueness forms' sharp constants against
closed forms, with a one-sided cross-check on samples drawn from the seed
(its only use).  Checks report margins, not just booleans, so a regression
shows up as a shrinking margin before it becomes a failure.
The checks build their traces with ``BoundarySpectrum.from_modes``, so each
mean row is the spectrum's derived mu0 - mu.
"""

from __future__ import annotations

import numpy as np

from .field import (NS_RESIDUAL_LIMIT, decay_fit, mode_ode_residuals,
                    ns_residual)
from .flows import (circulation_threshold, existence_condition,
                    re_zeta_minus_closed_form, rho_decay, zeta_pair)
from .grid import BoundarySpectrum, build_grid
from .linear import SourceSpectrum, solve_linear
from .solve import (SolverConfig, SolverConvergenceError,
                    fixed_point_residual, picard_solve, shoot_mu)
from .uniq import (_SHARP_GRID, _high_mode_eigenvalues, hardy_check,
                   hardy_sharpness, poincare_wirtinger_check,
                   positivity_factor, positivity_roots, probe_q1_negativity,
                   q_form, random_stream, random_w_profile)

__all__ = ["run_battery"]


def _check(passed, metric, threshold, detail=""):
    return {"passed": bool(passed), "metric": float(metric),
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
    return _check(metric < 1e-12, metric, 1e-12,
                  f"sum {worst_sum:.2e}, product {worst_prod:.2e}, "
                  f"closed-form Re {worst_re:.2e}")


def check_existence_threshold():
    target = 4.0 * np.sqrt(3.0)
    threshold = circulation_threshold(0.0)
    err = abs(threshold - target)
    flips = (not existence_condition(0.0, target * (1.0 - 1e-12))
             and existence_condition(0.0, target * (1.0 + 1e-12)))
    rho_err = abs(rho_decay(0.0, target) - 2.0)
    metric = max(err, rho_err)
    return _check(err < 1e-9 and flips and rho_err < 1e-12, metric, 1e-9,
                  f"threshold {threshold:.12f} vs 4*sqrt(3)={target:.12f}, "
                  f"existence flips across it: {flips}; "
                  f"rho at threshold off by {rho_err:.2e}")


def manufactured_solution(grid, phi0, mu, n_max, powers):
    """Trace, sources and exact solution of a manufactured linear problem.

    Mode n of ``powers`` = {n: p} solves exactly as
    w_n = r^-p, gamma_n = -r^(2-p) / ((2-p)^2 - n^2): its source is
    F_n = (p^2 - p phi0 - (i n mu + n^2)) r^-(p+2), its trace
    vr_n = i n gamma_n(1), vtheta_n = -d_r gamma_n(1), and the mean mode's
    swirl mu0 = mu - d_r gamma_0(1).  Every other mode has zero source and
    zero trace, so it solves as exactly 0.  The closed form needs p > 2,
    (2-p)^2 != n^2, and for n = 0 also p > phi0; rows are built for the
    listed modes only.  Returns (boundary, sources, exact), ``exact`` a
    dict of the (n_max + 1, nodes) profiles gamma, dgamma, w and dw.
    """
    r = grid.r
    shape = (n_max + 1, grid.n_nodes)
    exact = {key: np.zeros(shape, dtype=complex)
             for key in ("gamma", "dgamma", "w", "dw")}
    F = np.zeros(shape, dtype=complex)
    for n, p in powers.items():
        F[n] = (p * p - p * phi0 - (1j * n * mu + n * n)) * r ** (-(p + 2.0))
        c = -1.0 / ((2.0 - p) ** 2 - n * n)
        exact["w"][n] = r ** -p
        exact["dw"][n] = -p * r ** (-p - 1.0)
        exact["gamma"][n] = c * r ** (2.0 - p)
        exact["dgamma"][n] = c * (2.0 - p) * r ** (1.0 - p)
    vr = 1j * np.arange(n_max + 1) * exact["gamma"][:, 0]
    vtheta = -exact["dgamma"][:, 0]
    boundary = BoundarySpectrum(n_max, vr, vtheta, phi0,
                                mu0=mu + vtheta[0].real, mu=mu)
    return boundary, SourceSpectrum(n_max, F), exact


# (phi0, mu, {mode: power}) at n_max = 3; at (3.2, 0) mode 3 sits on the
# log resonance zeta_3^- + 2 + 3 = 0.
_MODE_POWERS = {1: 2.5, 2: 3.0, 3: 4.0}
_MANUFACTURED_FLOWS = ((2.5, 0.3, {0: 3.0, **_MODE_POWERS}),
                       (2.5, 0.0, {0: 3.0, **_MODE_POWERS}),
                       (3.0, 1.0, _MODE_POWERS), (3.2, 0.0, _MODE_POWERS))


def _manufactured_errors(grid, phi0, mu, powers):
    """``solve_linear`` on ``manufactured_solution`` at n_max = 3: the gated
    error (relative sup error of w and dw of the listed modes and of
    gamma_0 and dgamma_0), the trace defect at r = 1 (mean swirl included),
    the count of nonzero values in absent modes, and {n: stream error} of
    the listed n >= 1 (not gated)."""
    boundary, sources, exact = manufactured_solution(grid, phi0, mu, 3,
                                                     powers)
    sol = solve_linear(boundary.flow, grid, boundary, sources)
    err = {(key, n): float(np.abs(getattr(sol, key)[n] - v[n]).max()
                           / np.abs(v[n]).max())
           for key, v in exact.items() for n in powers}
    absent = [n for n in range(4) if n not in powers]
    return (max(e for (key, n), e in err.items()
                if n == 0 or key in ("w", "dw")),
            float(np.abs([1j * np.arange(4) * sol.gamma[:, 0] - boundary.vr,
                          -sol.dgamma[:, 0] - boundary.vtheta]).max()),
            sum(int(np.count_nonzero(getattr(sol, key)[absent]))
                for key in exact),
            {n: max(err["gamma", n], err["dgamma", n]) for n in powers if n})


def check_manufactured_solution():
    grid = build_grid(1e4, 128)
    runs = [_manufactured_errors(grid, *flow) for flow in _MANUFACTURED_FLOWS]
    gated, trace, nonzero = (max(column) for column in list(zip(*runs))[:3])
    stream = ", ".join(f"mode {n} {max(run[3][n] for run in runs):.1e}"
                       for n in (1, 2, 3))
    return _check(gated < 1e-6 and trace < 1e-8 and nonzero == 0, gated, 1e-6,
                  f"{len(runs)} flows through solve_linear: w, dw, "
                  f"gamma_0 {gated:.2e}, trace {trace:.1e}, {nonzero} nonzero "
                  f"in absent modes; stream n>=1 (not gated) {stream}")


def check_ode_residuals():
    grid = build_grid(1e4, 64)
    n_max = 4
    phi0, mu = 2.5, 0.2
    boundary = BoundarySpectrum.from_modes(n_max, phi0, mu0=0.3, mu=mu,
                                           vr={1: 0.02, 2: 0.01j},
                                           vtheta={1: 0.01, 3: 0.004})
    n = np.arange(n_max + 1)[:, None]
    F = (0.01 + 0.001j * n) * grid.r ** (-5.5 - 0.2 * n)
    sources = SourceSpectrum(n_max, F)
    sol = solve_linear(boundary.flow, grid, boundary, sources)
    res_g, res_w = mode_ode_residuals(sol, sources)
    metric = max(res_g, res_w)
    return _check(metric < 1e-4, metric, 1e-4,
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
    ok = (rep.converged and fp < 2.0 * config.tol_fp
          and ns < NS_RESIDUAL_LIMIT and slack < 0.05)
    return _check(ok, max(fp / (2 * config.tol_fp), ns / NS_RESIDUAL_LIMIT),
                  1.0, f"{rep.iterations} iterations, contraction "
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
    return _check(ok, rep.shoot_residual, config.tol_mu,
                  f"mu = mu0 {rep.mu - mu0:+.3e} after "
                  f"{len(rep.mu_history)} steps; quadratic shift "
                  f"{shift:.3e}")


def check_hardy(seed: int):
    sharp = hardy_sharpness()
    err = max(abs(eig - closed) for closed, eig in sharp.values())
    grid = build_grid(*_SHARP_GRID)
    w, dw = random_w_profile(grid, np.random.default_rng(seed), size=100)
    best = {a: hardy_check(grid, w, dw, a).ratio.max() for a in sharp}
    ok = err < 1e-3 and all(best[a] <= sharp[a][0] for a in sharp)
    return _check(ok, err, 1e-3, "; ".join(
        f"alpha {a}: closed form {c:.5f}, eigenvalue {e:.5f}, "
        f"100 profiles <= {best[a]:.4f}" for a, (c, e) in sharp.items()))


def check_qforms(seed: int):
    phi0s = (2.2, 2.5, 3.0)
    least = _high_mode_eigenvalues(phi0s)
    stream = random_stream(build_grid(*_SHARP_GRID),
                           np.random.default_rng(seed + 1), size=10)
    forms = [q_form(stream, phi0) for phi0 in phi0s]
    q1 = min(float((f.q_1 / f.scale).min()) for f in forms)
    gap = min(float(((f.q_sup1 - f.lower_bound) / f.scale).min())
              for f in forms)
    c = min(float((f.c_measured - row.min()).min())
            for f, row in zip(forms, least))
    pw = float(poincare_wirtinger_check(stream).min())
    ok = (least.min() >= 0.2 and q1 >= -1e-8 and gap >= -1e-8
          and c >= -1e-3 and pw >= -1e-12)
    modes = ", ".join(f"k={k} {v:.4f}" for k, v in enumerate(least.min(0), 2))
    return _check(ok, least.min(), 0.2,
                  f"least Q_sup1 eigenvalue over phi0 {phi0s}: {modes}; 10 "
                  f"streams: min Q1 {q1:.2e}, min gap {gap:.2e}, min c - "
                  f"eigenvalue {c:.4f}, min mode margin {pw:.2e}")


def check_positivity_window():
    worst, signs = 0.0, True
    for phi0 in (2.2, 2.5, 3.0):
        roots = positivity_roots(phi0)
        lo, hi = roots[0], roots[-1]
        f = positivity_factor(np.array(
            [lo, hi, 0.5 * (1.0 + lo), 0.5 * (lo + hi), 2.0 * hi]), phi0)
        worst = max(worst, float(np.abs(f[:2]).max()))
        signs &= len(roots) == 2 and f[2] < 0.0 < f[3] and f[4] < 0.0
    return _check(worst < 1e-12 and signs, worst, 1e-12, f"factor {worst:.2e} "
                  f"at (3, 2 phi0 - 1), positive only between: {signs}")


def check_q1_probe():
    (c_pos, e_pos), (c_neg, e_neg) = (probe_q1_negativity(phi0)
                                      for phi0 in (3.2, 4.6))
    err = max(abs(e_pos - c_pos), abs(e_neg - c_neg))
    return _check(err < 1e-3 and e_pos > 0.0 > e_neg, err, 1e-3,
                  f"least Q1 eigenvalue {e_pos:.5f} at phi0 3.2 (closed form "
                  f"{c_pos:.5f}), {e_neg:.5f} at 4.6 (closed form {c_neg:.5f})")


def run_battery(quick: bool = False, seed: int = 0) -> dict:
    """Every check in order, each a record of its name, verdict, metric,
    threshold and detail.  A check that raises ``SolverConvergenceError``
    or an ``ArithmeticError`` is recorded as failed with metric inf, and
    the rest still run; any other exception propagates."""
    checks = []
    for name, check, *args in (
            ("exponent_identities", check_exponent_identities, quick),
            ("existence_threshold", check_existence_threshold),
            ("manufactured_solution", check_manufactured_solution),
            ("ode_residuals", check_ode_residuals),
            ("picard_fixed_point", check_picard_fixed_point, quick),
            ("circulation_shooting", check_shooting, quick),
            ("hardy_inequality", check_hardy, seed),
            ("quadratic_forms", check_qforms, seed),
            ("positivity_window", check_positivity_window),
            ("q1_negativity_probe", check_q1_probe)):
        try:
            record = check(*args)
        except (SolverConvergenceError, ArithmeticError) as exc:
            record = _check(False, np.inf, np.nan,
                            f"{type(exc).__name__}: {exc}")
        checks.append({"name": name, **record})
    return {
        "quick": bool(quick),
        "seed": int(seed),
        "checks": checks,
        "all_passed": all(c["passed"] for c in checks),
    }
