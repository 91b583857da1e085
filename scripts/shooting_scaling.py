#!/usr/bin/env python3
"""Measure how the shot circulation moves with the trace amplitude.

In the weak-flux regime (phi0 <= 2) the asymptotic circulation mu is not
free: it is pinned by the boundary trace through a scalar compatibility
condition, and the solver finds it by shooting.  Because the correction
enters through the quadratic interaction of the oscillatory modes, the
shift |mu - mu0| should scale like the square of the trace amplitude eps.

This script runs the shooting solver over a ladder of amplitudes, prints
the shift and the per-step ratios, and fits the log-log slope (expected
close to 2).  With --out it writes the table as CSV.
"""

import argparse
import csv
import pathlib
import sys

import numpy as np

from hamelflow import BoundarySpectrum, SolverConfig, ns_residual, shoot_mu
from hamelflow.flows import circulation_is_free


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--phi0", type=float, default=1.0,
                        help="radial flux of the background (must be <= 2)")
    parser.add_argument("--mu0", type=float, default=5.0,
                        help="mean swirl of the boundary trace")
    parser.add_argument("--eps", type=float, nargs="+",
                        default=[0.02, 0.01, 0.005, 0.0025],
                        help="trace amplitudes, largest first")
    parser.add_argument("--n-modes", type=int, default=8)
    parser.add_argument("--nodes-per-decade", type=int, default=48)
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        help="CSV file for the scaling table")
    args = parser.parse_args(argv)

    if circulation_is_free(args.phi0):
        parser.error("shooting applies for phi0 <= 2; use "
                     "branch_portrait.py for the strong-flux regime")

    config = SolverConfig(n_modes=args.n_modes,
                          nodes_per_decade=args.nodes_per_decade)
    rows = []
    print(f"shooting at phi0={args.phi0}, mu0={args.mu0}")
    print(f"{'eps':>10} {'mu_solved':>14} {'shift':>12} {'ratio':>8} "
          f"{'iters':>5} {'residual':>10}")
    previous_shift = None
    for eps in args.eps:
        boundary = BoundarySpectrum.from_modes(
            args.n_modes, args.phi0, args.mu0, args.mu0, vr={2: eps},
            vtheta={1: eps})
        solution, report = shoot_mu(boundary, config)
        shift = abs(report.mu - args.mu0)
        ratio = (previous_shift / shift) if previous_shift else float("nan")
        previous_shift = shift
        print(f"{eps:10.4g} {report.mu:14.10f} {shift:12.4e} {ratio:8.4f} "
              f"{report.iterations:5d} {ns_residual(solution):10.2e}")
        rows.append({"eps": eps, "mu_solved": report.mu, "shift": shift,
                     "iterations": report.iterations,
                     "shoot_residual": abs(report.shoot_residual)})

    if len(rows) >= 2:
        logs_e = np.log([row["eps"] for row in rows])
        logs_s = np.log([row["shift"] for row in rows])
        slope = float(np.polyfit(logs_e, logs_s, 1)[0])
        print(f"log-log slope of shift vs amplitude: {slope:.4f} "
              f"(quadratic response would give 2)")

    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        with args.out.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {args.out}")

    return 0


if __name__ == "__main__":
    sys.exit(main())
