#!/usr/bin/env python3
"""Sweep the circulation branch attached to one fixed boundary trace.

For strong suction (phi0 > 2) the boundary data does not pin the flow: each
asymptotic circulation mu in an admissible interval yields its own converged
solution with the same trace on the unit circle.  This script solves the
branch over a ladder of mu values and prints, per member, the circulation
still carried beyond r_max (0 as r_max grows), the slowest stream-mode
decay rate, the momentum residual, and the sup-norm gap (at a probe
radius) to the first member — showing distinct fields behind identical
boundary data.

With --out, writes summary.json (in the package's JSON format, a value
without a finite number as null) plus one CSV per member tabulating the
circulation carried at radius r, y(r) = mu - r * Re d_r gamma_0(r); the
summary's circulation_at_r_max is mu - y(r_max).
"""

import argparse
import csv
import pathlib
import sys

import numpy as np

from hamelflow import (BoundarySpectrum, SolverConfig, asymptotic_circulation,
                       branch_sweep, decay_fit, ns_residual, reconstruct,
                       synthesize_boundary)
from hamelflow.flows import circulation_is_free
from hamelflow.report import write_json


def field_row(solution, radius):
    """(u_r, u_theta, w) on 256 angles at the grid node nearest ``radius``."""
    full = reconstruct(solution, 256)
    j = int(np.argmin(np.abs(np.log(full.r) - np.log(radius))))
    return np.concatenate([full.ur[j], full.utheta[j], full.w[j]])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--phi0", type=float, default=2.5,
                        help="radial flux of the background (must be > 2)")
    parser.add_argument("--mu0", type=float, default=0.2,
                        help="mean swirl of the boundary trace")
    parser.add_argument("--eps", type=float, default=0.01,
                        help="amplitude of the oscillatory trace modes")
    parser.add_argument("--mu-values", type=float, nargs="+",
                        default=[0.1, 0.15, 0.2, 0.25, 0.3],
                        help="asymptotic circulations to solve for")
    parser.add_argument("--n-modes", type=int, default=8)
    parser.add_argument("--nodes-per-decade", type=int, default=48)
    parser.add_argument("--probe-radius", type=float, default=10.0,
                        help="radius at which member fields are compared")
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        help="directory for summary.json and member CSVs")
    args = parser.parse_args(argv)

    if not circulation_is_free(args.phi0):
        parser.error("branch sweeps need phi0 > 2; use shooting_scaling.py "
                     "for the weak-flux regime")

    config = SolverConfig(n_modes=args.n_modes,
                          nodes_per_decade=args.nodes_per_decade)
    boundary = BoundarySpectrum.from_modes(
        args.n_modes, args.phi0, args.mu0, args.mu_values[0],
        vr={2: args.eps}, vtheta={1: args.eps})
    members = branch_sweep(boundary, args.mu_values, config)

    reference_field = None
    reference_trace = None
    rows = []
    print(f"branch at phi0={args.phi0}, mu0={args.mu0}, trace amplitude "
          f"{args.eps}; probe radius {args.probe_radius}")
    print(f"{'mu':>8} {'iters':>5} {'circulation_at_r_max':>20} "
          f"{'beta0':>8} {'ns_resid':>10} {'field_gap':>10} "
          f"{'trace_gap':>10}")
    for member in members:
        if member.solution is None:
            print(f"{member.mu:8.4f}  FAILED: {member.error}")
            rows.append({"mu": member.mu, "converged": False,
                         "error": member.error})
            continue
        sol = member.solution
        carried = asymptotic_circulation(sol)
        profile = decay_fit(sol)
        resid = ns_residual(sol)
        field = field_row(sol, args.probe_radius)
        trace = np.concatenate(synthesize_boundary(sol.boundary, 256))
        if reference_field is None:
            reference_field, reference_trace = field, trace
        field_gap = float(np.abs(field - reference_field).max())
        trace_gap = float(np.abs(trace - reference_trace).max())
        print(f"{member.mu:8.4f} {member.report.iterations:5d} "
              f"{carried:20.4e} {profile.beta0:8.4f} "
              f"{resid:10.2e} {field_gap:10.2e} {trace_gap:10.2e}")
        rows.append({"mu": member.mu, "converged": True,
                     "iterations": member.report.iterations,
                     "circulation_at_r_max": carried,
                     "beta0": profile.beta0, "ns_residual": resid,
                     "field_gap_to_first": field_gap,
                     "trace_gap_to_first": trace_gap})

    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        summary = {"phi0": args.phi0, "mu0": args.mu0, "eps": args.eps,
                   "probe_radius": args.probe_radius, "members": rows}
        write_json(args.out / "summary.json", summary)
        for member in members:
            if member.solution is None:
                continue
            sol = member.solution
            y = sol.flow.mu - sol.grid.r * np.real(sol.dgamma[0])
            path = args.out / f"carried_circulation_mu_{member.mu:g}.csv"
            with path.open("w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(["r", "carried_circulation"])
                writer.writerows(zip(sol.grid.r, y))
        print(f"wrote {args.out}/summary.json and member CSVs")

    return 0 if all(m.solution is not None for m in members) else 2


if __name__ == "__main__":
    sys.exit(main())
