#!/usr/bin/env python3
"""Run the verification battery and draw the decay/inequality portrait.

Three panels, all printed as plain tables:

1. the built-in check battery (a manufactured solution of the whole
   linear problem through solve_linear, finite-difference residuals, the
   fixed point, shooting and the inequality checks);
2. fitted large-radius decay rates of a generic linear solve against the
   closed-form mode exponents;
3. the sharp constants of the uniqueness-window inequalities, each
   eigenvalue next to its closed form: the Hardy ratio per weight, and per
   background the least Q_1 value and the positivity window of the weight
   factor.

With --out, the full portrait is also written as JSON, in the package's
format (a value without a finite number, such as the metric of a check
that raised, as null).
"""

import argparse
import pathlib
import sys

import numpy as np

from hamelflow import (BoundarySpectrum, build_grid, decay_fit,
                       re_zeta_minus_closed_form, solve_linear, zeta_pair)
from hamelflow.uniq import (hardy_sharpness, positivity_roots,
                            probe_q1_negativity)
from hamelflow.report import write_json
from hamelflow.verify import run_battery


def battery_panel(quick, seed):
    report = run_battery(quick=quick, seed=seed)
    print("== check battery ==")
    for check in report["checks"]:
        tag = "PASS" if check["passed"] else "FAIL"
        print(f"[{tag}] {check['name']}: metric {check['metric']:.3e} "
              f"(threshold {check['threshold']:.1e})")
    print(f"all passed: {report['all_passed']}")
    return report


def decay_panel(phi0, mu):
    grid = build_grid(1e6, 24)
    n_max = 4
    boundary = BoundarySpectrum.from_modes(
        n_max, phi0, mu, mu, vr={1: 0.01, 2: 0.008, 3: 0.006, 4: 0.004},
        vtheta={1: 0.005, 2: 0.004j, 3: 0.003, 4: 0.002})
    profile = decay_fit(solve_linear(boundary.flow, grid, boundary))
    print(f"\n== decay rates at phi0={phi0}, mu={mu} ==")
    print(f"{'n':>3} {'stream fit':>11} {'stream pred':>12} "
          f"{'vort fit':>11} {'vort pred':>11}")
    rows = []
    zm = zeta_pair(phi0, mu, np.arange(n_max + 1))[1]
    for n in range(1, n_max + 1):
        g_pred = max(-float(n), float(zm[n].real) + 2.0)
        w_pred = re_zeta_minus_closed_form(phi0, mu, n)
        print(f"{n:3d} {profile.gamma_slopes[n]:11.4f} {g_pred:12.4f} "
              f"{profile.w_slopes[n]:11.4f} {w_pred:11.4f}")
        rows.append({"n": n, "gamma_fit": float(profile.gamma_slopes[n]),
                     "gamma_predicted": g_pred,
                     "w_fit": float(profile.w_slopes[n]),
                     "w_predicted": float(w_pred)})
    return rows


def inequality_panel():
    print("\n== uniqueness-window sharp constants (closed form, eigenvalue) ==")
    hardy = [{"alpha": alpha, "closed_form": closed, "eigenvalue": eig}
             for alpha, (closed, eig) in hardy_sharpness().items()]
    for row in hardy:
        print(f"hardy alpha={row['alpha']}: {row['closed_form']:.6f} "
              f"{row['eigenvalue']:.6f}")
    backgrounds = []
    for phi0 in (2.1, 2.5, 3.0):
        roots = positivity_roots(phi0)
        closed, eig = probe_q1_negativity(phi0)
        print(f"phi0={phi0}: least Q1 {closed:.6f} {eig:.6f}; weight "
              f"positive on ({roots[0]:.6f}, {roots[1]:.6f})")
        backgrounds.append({"phi0": phi0, "positivity_window": roots,
                            "q1_closed_form": closed, "q1_eigenvalue": eig})
    return {"hardy": hardy, "backgrounds": backgrounds}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="run the battery on coarser grids")
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--phi0", type=float, default=2.5)
    parser.add_argument("--mu", type=float, default=0.2)
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        help="JSON file for the whole portrait")
    args = parser.parse_args(argv)

    battery = battery_panel(args.quick, args.seed)
    decay = decay_panel(args.phi0, args.mu)
    inequalities = inequality_panel()

    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        portrait = {"battery": battery, "decay": decay,
                    "inequalities": inequalities}
        write_json(args.out, portrait)
        print(f"\nwrote {args.out}")

    return 0 if battery["all_passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
