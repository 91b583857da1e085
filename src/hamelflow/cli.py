"""Command-line interface.

Exit codes: 0 success, 1 invalid input (a config that cannot be read, a
flux in the degenerate band just above 2, phi0 = mu = 0, a grid of fewer
than 5 nodes and an export source that is not a modes.json included) or
failed verification, 2 solver non-convergence.  The usage errors that click
raises itself (an unknown command or option, a missing required option)
keep click's exit 2.
Reports are deterministic: rerunning a command with the same config and
seed reproduces every output byte for byte.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import asdict

import click
import numpy as np

from . import __version__
from .config import ConfigError, build_boundary, load_config, solver_config
from .field import (NS_RESIDUAL_LIMIT, asymptotic_circulation, decay_fit,
                    ns_residual, reconstruct)
from .flows import circulation_is_free
from .grid import synthesize_boundary
from .report import (ModeTable, report_payload, solution_payload,
                     write_field_csv, write_json, write_modes_csv)
from .solve import (SolverConvergenceError, branch_sweep, picard_solve,
                    shoot_mu)

CONVERGENCE_EXIT = 2


@click.group()
@click.version_option(version=__version__, prog_name="hamelflow")
def main():
    """Spectral solver and checks for steady exterior planar flows."""


def _load(config_path, quick, overrides):
    try:
        cfg = load_config(config_path, flow=overrides)
        sc = solver_config(cfg, quick=quick)
        boundary = build_boundary(cfg, sc)
        return cfg, sc, boundary
    except ConfigError as exc:
        raise click.ClickException(str(exc)) from exc


def _diagnostics(solution):
    return {"ns_residual": ns_residual(solution),
            "circulation_at_r_max": asymptotic_circulation(solution),
            "decay": asdict(decay_fit(solution))}


def _write_solution(outdir, solution, report, cfg, seed):
    """Write a solve's artifacts; returns the diagnostics in report.json."""
    os.makedirs(outdir, exist_ok=True)
    diagnostics = _diagnostics(solution)
    if not diagnostics["ns_residual"] < NS_RESIDUAL_LIMIT:
        warning = (f"ns_residual {diagnostics['ns_residual']:.3g} is not "
                   f"below {NS_RESIDUAL_LIMIT:g}: the grid does not resolve "
                   "this solve at solver.nodes_per_decade = "
                   f"{solution.grid.nodes_per_decade}")
        report.warnings.append(warning)
        click.echo(f"warning: {warning}", err=True)
    extras = {"seed": seed, "config": cfg, **diagnostics}
    write_json(os.path.join(outdir, "report.json"),
               report_payload(report, extras))
    # modes.json, modes.csv and field.csv share the formatted radii, and
    # the two mode files the formatted profiles.
    table = ModeTable.of(solution)
    write_json(os.path.join(outdir, "modes.json"),
               solution_payload(solution, table))
    write_modes_csv(os.path.join(outdir, "modes.csv"), table)
    out_cfg = cfg.get("output", {})
    if out_cfg.get("write_field", False):
        field = reconstruct(solution, out_cfg.get("theta_points", 128))
        write_field_csv(os.path.join(outdir, "field.csv"), field, table)
    return diagnostics


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--out", "outdir", default="out", show_default=True,
              type=click.Path(file_okay=False))
@click.option("--phi0", type=float, default=None, help="Override flow.phi0.")
@click.option("--mu0", type=float, default=None, help="Override flow.mu0.")
@click.option("--mu", type=float, default=None, help="Override flow.mu.")
@click.option("--quick", is_flag=True, help="Coarser grid and fewer modes.")
@click.option("--seed", type=int, default=0, show_default=True)
def solve(config_path, outdir, phi0, mu0, mu, quick, seed):
    """Solve one flow: shooting closure for phi0 <= 2, fixed mu above."""
    cfg, sc, boundary = _load(config_path, quick,
                              {"phi0": phi0, "mu0": mu0, "mu": mu})
    try:
        if circulation_is_free(boundary.phi0):
            solution, report = picard_solve(boundary, sc)
        else:
            solution, report = shoot_mu(boundary, sc)
    except SolverConvergenceError as exc:
        click.echo(f"solver did not converge: {exc}", err=True)
        sys.exit(CONVERGENCE_EXIT)
    _write_solution(outdir, solution, report, cfg, seed)
    click.echo(f"converged in {report.iterations} iterations "
               f"(mu={report.mu:.12g}); wrote {outdir}/report.json")


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--out", "outdir", default="out", show_default=True,
              type=click.Path(file_okay=False))
@click.option("--mu", "mu_extra", type=float, multiple=True,
              help="Append a circulation to the sweep.")
@click.option("--quick", is_flag=True)
@click.option("--seed", type=int, default=0, show_default=True)
def branch(config_path, outdir, mu_extra, quick, seed):
    """Sweep circulations against one trace (non-uniqueness, phi0 > 2)."""
    cfg, sc, boundary = _load(config_path, quick, {})
    mu_values = list(cfg.get("branch", {}).get("mu_values", []))
    mu_values.extend(mu_extra)
    if not mu_values:
        raise click.ClickException("no circulations: give branch.mu_values "
                                   "in the config or --mu")
    if not circulation_is_free(boundary.phi0):
        raise click.ClickException("branch sweeps need phi0 > 2")
    members = branch_sweep(boundary, mu_values, sc)
    os.makedirs(outdir, exist_ok=True)
    summary = []
    failed = 0
    for idx, member in enumerate(members):
        entry = {"mu": member.mu, "converged": member.solution is not None}
        if member.solution is None:
            failed += 1
            entry["error"] = member.error
        else:
            sub = os.path.join(outdir, f"mu_{idx:02d}")
            entry["circulation_at_r_max"] = _write_solution(
                sub, member.solution, member.report, cfg,
                seed)["circulation_at_r_max"]
            entry["iterations"] = member.report.iterations
            trace_ur, trace_ut = synthesize_boundary(
                member.solution.boundary, 64)
            entry["trace_checksum"] = [float(np.sum(trace_ur)),
                                       float(np.sum(trace_ut))]
        summary.append(entry)
    write_json(os.path.join(outdir, "summary.json"),
               {"seed": seed, "members": summary, "failed": failed})
    click.echo(f"{len(members) - failed}/{len(members)} members converged; "
               f"wrote {outdir}/summary.json")
    if failed:
        sys.exit(CONVERGENCE_EXIT)


@main.command()
@click.option("--out", "outdir", default=None,
              type=click.Path(file_okay=False),
              help="Also write verify_report.json here.")
@click.option("--quick", is_flag=True, help="Reduced sample counts.")
@click.option("--seed", type=int, default=0, show_default=True)
def verify(outdir, quick, seed):
    """Run the oracle battery: kernels, traces, residuals, inequalities."""
    from .verify import run_battery   # only this command loads the checks

    battery = run_battery(quick=quick, seed=seed)
    for check in battery["checks"]:
        status = "PASS" if check["passed"] else "FAIL"
        click.echo(f"[{status}] {check['name']}: {check['detail']}")
    if outdir:
        os.makedirs(outdir, exist_ok=True)
        write_json(os.path.join(outdir, "verify_report.json"), battery)
    if not battery["all_passed"]:
        click.echo("verification FAILED", err=True)
        sys.exit(1)
    click.echo(f"all {len(battery['checks'])} checks passed")


@main.command()
@click.option("--solution", "soldir", required=True, type=click.Path(),
              help="Directory written by solve/branch, or a modes.json.")
@click.option("--out", "outpath", required=True, type=click.Path())
def export(soldir, outpath):
    """Re-emit stored mode profiles as the bytes of a modes.csv."""
    src = soldir if os.path.isfile(soldir) else os.path.join(soldir,
                                                             "modes.json")
    if not os.path.isfile(src):
        raise click.ClickException(f"{soldir} has no modes.json")
    try:
        with open(src, encoding="utf-8") as fh:
            payload = json.load(fh)
        # [re, im] pairs viewed as complex: no arithmetic, exact values.
        modes = payload["modes"]
        profile = lambda key: np.array([m[key] for m in modes],
                                       dtype=float).view(complex)[..., 0]
        columns = ([m["n"] for m in modes],
                   np.asarray(payload["r"], dtype=float),
                   *map(profile, ("gamma", "dgamma", "w", "dw")))
        write_modes_csv(outpath, ModeTable(*columns))
    except (IndexError, KeyError, TypeError, ValueError) as exc:
        raise click.ClickException(
            f"{src} is not a modes.json ({type(exc).__name__}: {exc})"
        ) from exc
    click.echo(f"wrote {outpath}")


if __name__ == "__main__":
    main()
