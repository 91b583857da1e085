"""Per-layer measurements: where the tracer wraps, what it counts, and the
probes that run outside the jobs (import times, config, accuracy).

The layers are the package modules.  Each wrap names the module attribute
the caller looks the function up through, so the wrapper sees every call
the workloads make from that caller.
"""

from __future__ import annotations

import os
import re
import statistics
import subprocess
import sys
import time

import numpy as np

import hamelflow.cli
import hamelflow.config
import hamelflow.field
import hamelflow.grid
import hamelflow.linear
import hamelflow.solve
import hamelflow.verify
from hamelflow.flows import ReferenceFlow
from hamelflow.grid import BoundarySpectrum

from tracing import Tracer

# ---------------------------------------------------------------------------
# counters read at the span boundary


def _nodes(args, kwargs, result, exc):
    f = args[1] if len(args) > 1 else kwargs["f"]
    return {"nodes": int(np.size(f))}


def _pair_products(args, kwargs, result, exc):
    """(l, k) pairs with l + k = n, |l|, |k| <= N, n = 0..N, times nodes."""
    solution = args[0] if args else kwargs["solution"]
    n_max = solution.gamma.shape[0] - 1
    pairs = sum(2 * n_max + 1 - n for n in range(n_max + 1))
    return {"pair_products": pairs * solution.gamma.shape[1]}


def _report_of(result, exc):
    if result is not None:
        return result[1]
    return getattr(exc, "report", None)


def _picard(args, kwargs, result, exc):
    report = _report_of(result, exc)
    if report is None:
        return {}
    return {"iterations": report.iterations,
            "contraction_ratio": report.contraction_ratio}


def _shoot(args, kwargs, result, exc):
    report = _report_of(result, exc)
    return {"candidates": len(report.mu_history) if report is not None else 0}


def _bytes(args, kwargs, result, exc):
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path) if exc is None else 0}


def _battery(args, kwargs, result, exc):
    if result is None:
        return {}
    return {"checks_passed": sum(bool(c["passed"]) for c in result["checks"])}


# (module, attribute, layer, counter)
WRAPS = [
    (hamelflow.cli, "load_config", "config", None),
    (hamelflow.cli, "solver_config", "config", None),
    (hamelflow.cli, "build_boundary", "config", None),
    (hamelflow.linear, "integrate_out_all", "grid", _nodes),
    (hamelflow.linear, "integrate_in_all", "grid", _nodes),
    (hamelflow.grid, "integrate_out_all", "grid", _nodes),
    (hamelflow.grid, "integrate_in_all", "grid", _nodes),
    (hamelflow.solve, "solve_linear", "linear", None),
    (hamelflow.verify, "solve_linear", "linear", None),
    (hamelflow.solve, "compute_sources", "nonlin", _pair_products),
    (hamelflow.field, "compute_sources", "nonlin", _pair_products),
    (hamelflow.cli, "picard_solve", "solve", _picard),
    (hamelflow.solve, "picard_solve", "solve", _picard),
    (hamelflow.verify, "picard_solve", "solve", _picard),
    (hamelflow.cli, "shoot_mu", "solve", _shoot),
    (hamelflow.solve, "shoot_mu", "solve", _shoot),
    (hamelflow.verify, "shoot_mu", "solve", _shoot),
    (hamelflow.cli, "branch_sweep", "solve", None),
    (hamelflow.solve, "branch_sweep", "solve", None),
    (hamelflow.cli, "ns_residual", "field", None),
    (hamelflow.field, "ns_residual", "field", None),
    (hamelflow.verify, "ns_residual", "field", None),
    (hamelflow.cli, "asymptotic_circulation", "field", None),
    (hamelflow.field, "asymptotic_circulation", "field", None),
    (hamelflow.cli, "decay_fit", "field", None),
    (hamelflow.field, "decay_fit", "field", None),
    (hamelflow.verify, "decay_fit", "field", None),
    (hamelflow.verify, "mode_ode_residuals", "field", None),
    (hamelflow.cli, "reconstruct", "field", None),
    (hamelflow.cli, "report_payload", "report", None),
    (hamelflow.cli, "solution_payload", "report", None),
    (hamelflow.cli, "write_json", "report", _bytes),
    (hamelflow.cli, "write_modes_csv", "report", _bytes),
    (hamelflow.cli, "write_field_csv", "report", _bytes),
    (hamelflow.verify, "hardy_check", "uniq", None),
    (hamelflow.verify, "hardy_sharpness", "uniq", None),
    (hamelflow.verify, "q_form", "uniq", None),
    (hamelflow.verify, "poincare_wirtinger_check", "uniq", None),
    (hamelflow.verify, "probe_q1_negativity", "uniq", None),
    (hamelflow.verify, "positivity_roots", "uniq", None),
    (hamelflow.verify, "random_stream", "uniq", None),
    (hamelflow.verify, "random_w_profile", "uniq", None),
    (hamelflow.verify, "run_battery", "verify", _battery),
]

SHARE_LAYERS = ("bench", "config", "grid", "linear", "nonlin", "solve",
                "field", "report", "uniq", "verify")


def install(tracer: Tracer):
    for module, attr, layer, count in WRAPS:
        tracer.wrap(module, attr, layer, count)


def layer_metrics(tracer: Tracer, n_jobs: int) -> dict:
    """Per-job means of self times and counts, from the recorded spans."""
    spans = tracer.spans
    self_t = tracer.self_times()
    total = sum(s.duration for s in spans if s.parent is None)

    def pick(*names):
        return [i for i, s in enumerate(spans) if s.name in names]

    def self_sum(*names):
        return sum(self_t[i] for i in pick(*names))

    def count_sum(key, *names):
        return sum(spans[i].counts.get(key, 0) for i in pick(*names))

    per = lambda x: x / n_jobs
    m = {}
    integ = ("grid.integrate_out_all", "grid.integrate_in_all")
    calls = len(pick(*integ))
    integ_s = self_sum(*integ)
    m["grid.integrate_calls"] = (per(calls), "count/job")
    m["grid.integrate_s"] = (per(integ_s), "s/job")
    m["grid.integrate_us_per_call"] = (1e6 * integ_s / calls if calls else 0.0,
                                       "us")
    m["grid.nodes"] = (per(count_sum("nodes", *integ)), "count/job")

    lin = pick("linear.solve_linear")
    m["linear.solve_linear_calls"] = (per(len(lin)), "count/job")
    m["linear.solve_linear_self_s"] = (per(self_sum("linear.solve_linear")),
                                       "s/job")
    m["linear.ms_per_call"] = (
        1e3 * statistics.fmean(spans[i].duration for i in lin) if lin else 0.0,
        "ms")

    src = pick("nonlin.compute_sources")
    m["nonlin.sources_calls"] = (per(len(src)), "count/job")
    m["nonlin.sources_s"] = (per(self_sum("nonlin.compute_sources")), "s/job")
    m["nonlin.pair_products"] = (
        per(count_sum("pair_products", "nonlin.compute_sources")), "count/job")

    ratios = [spans[i].counts["contraction_ratio"]
              for i in pick("solve.picard_solve")
              if "contraction_ratio" in spans[i].counts]
    m["solve.picard_solves"] = (per(len(pick("solve.picard_solve"))),
                                "count/job")
    m["solve.picard_iterations"] = (
        per(count_sum("iterations", "solve.picard_solve")), "count/job")
    m["solve.shoot_candidates"] = (
        per(count_sum("candidates", "solve.shoot_mu")), "count/job")
    m["solve.self_s"] = (per(self_sum("solve.picard_solve", "solve.shoot_mu",
                                      "solve.branch_sweep")), "s/job")
    m["solve.contraction_ratio"] = (
        float(np.median(ratios)) if ratios else 0.0, "1")

    m["field.ns_residual_s"] = (per(self_sum("field.ns_residual")), "s/job")
    m["field.diagnostics_s"] = (per(self_sum(
        "field.asymptotic_circulation", "field.decay_fit",
        "field.mode_ode_residuals")), "s/job")
    m["field.reconstruct_s"] = (per(self_sum("field.reconstruct")), "s/job")

    report_names = [n for n in {s.name for s in spans}
                    if n.startswith("report.")]
    write_s = self_sum(*report_names)
    nbytes = count_sum("bytes", *report_names)
    m["report.write_s"] = (per(write_s), "s/job")
    m["report.bytes"] = (per(nbytes), "B/job")
    m["report.mb_per_s"] = (nbytes / 1e6 / write_s if write_s else 0.0, "MB/s")

    m["uniq.hardy_s"] = (per(self_sum("uniq.hardy_check",
                                      "uniq.hardy_sharpness")), "s/job")
    m["uniq.hardy_calls"] = (per(len(pick("uniq.hardy_check"))), "count/job")
    m["uniq.qform_s"] = (per(self_sum("uniq.q_form",
                                      "uniq.poincare_wirtinger_check")),
                         "s/job")
    m["uniq.probe_s"] = (per(self_sum("uniq.probe_q1_negativity")), "s/job")
    m["verify.checks_passed"] = (
        per(count_sum("checks_passed", "verify.run_battery")), "count/job")

    by_layer = {}
    for i, s in enumerate(spans):
        by_layer[s.layer] = by_layer.get(s.layer, 0.0) + self_t[i]
    for layer in SHARE_LAYERS:
        m[f"share.{layer}"] = (100.0 * by_layer.get(layer, 0.0) / total
                               if total else 0.0, "%")
    m["trace.spans"] = (per(len(spans)), "count/job")
    return m


# ---------------------------------------------------------------------------
# probes outside the jobs


_IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)")


def parse_importtime(text: str) -> dict:
    """Cumulative seconds of the outermost imports of each package family.

    ``-X importtime`` prints children before their parent, indented one
    step deeper; walking the lines backwards sees every parent first.
    """
    families = {"total": "hamelflow", "scipy": "scipy",
                "jsonschema": "jsonschema", "click": "click"}
    out = {key: 0.0 for key in families}
    stack = []  # (depth, name) of the enclosing imports
    for line in reversed(text.splitlines()):
        match = _IMPORT_LINE.match(line)
        if not match:
            continue
        cumulative, depth, name = int(match[2]), len(match[3]), match[4]
        while stack and stack[-1][0] >= depth:
            stack.pop()
        for key, pkg in families.items():
            mine = lambda n: n == pkg or n.startswith(pkg + ".")
            if mine(name) and not any(mine(n) for _, n in stack):
                out[key] += cumulative * 1e-6
        stack.append((depth, name))
    return out


def import_metrics(root, env, reps: int = 3) -> dict:
    runs = []
    for _ in range(reps):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import hamelflow.cli"],
            cwd=root, env=env, capture_output=True, text=True, timeout=60,
            check=True)
        runs.append(parse_importtime(proc.stderr))
    return {f"import.{key}_s": (statistics.median(r[key] for r in runs), "s")
            for key in runs[0]}


def config_metrics(config_path, reps: int = 20) -> dict:
    """Warm in-process times of schema validation and boundary assembly."""
    load, build = [], []
    for _ in range(reps):
        t0 = time.perf_counter()
        cfg = hamelflow.config.load_config(config_path)
        t1 = time.perf_counter()
        sc = hamelflow.config.solver_config(cfg)
        t2 = time.perf_counter()
        hamelflow.config.build_boundary(cfg, sc)
        t3 = time.perf_counter()
        load.append(t1 - t0)
        build.append(t3 - t2)
    return {"config.load_s": (statistics.median(load), "s"),
            "config.build_boundary_s": (statistics.median(build), "s")}


# Closed forms of int_r^inf s f(s) ds for the quadrature-order probe.
def _order_cases(r):
    x = np.log(r)
    return [
        (r ** -3 + r ** -5, r ** -1 + r ** -3 / 3.0),
        ((1.0 + np.cos(2.0 * x)) * r ** -4,
         r ** -2 / 2.0 + np.real(np.exp((-2.0 + 2.0j) * x) / (2.0 - 2.0j))),
        (np.sin(3.0 * x) * r ** -4.2,
         np.imag(np.exp((-2.2 + 3.0j) * x) / (2.2 - 3.0j))),
    ]


def quad_order() -> float:
    """Least observed order of ``integrate_out_all`` over 32..256 nodes/decade."""
    errs = []
    for npd in (32, 64, 128, 256):
        grid = hamelflow.grid.build_grid(1e4, npd)
        row = []
        for f, exact in _order_cases(grid.r):
            got = hamelflow.grid.integrate_out_all(grid, f, 0.0)
            row.append(np.abs(got - exact).max() / np.abs(exact).max())
        errs.append(row)
    errs = np.array(errs)
    return float(np.log2(errs[:-1] / errs[1:]).min())


def superposition_err() -> float:
    """sup |S(F1 + F2) - S(F1) - S(F2)| / sup |S(F1 + F2)| at a zero trace.

    The sources are complex powers r^(p + i q), which oscillate in the real
    part; ``solve_linear`` is a linear map of them, so this is rounding for
    a linear quadrature.
    """
    n_max = 8
    grid = hamelflow.grid.build_grid(1e4, 64)
    flow = ReferenceFlow(2.5, 0.2)
    zero = np.zeros(n_max + 1, dtype=complex)
    boundary = BoundarySpectrum(n_max=n_max, vr=zero, vtheta=zero.copy(),
                                phi0=2.5, mu0=0.2, mu=0.2)
    n = np.arange(n_max + 1)[:, None]
    f1 = (1.0 + 0.5j) * grid.r ** (-6.0 - 0.1 * n + 1.0j)
    f2 = (0.3 - 1.0j) * grid.r ** (-6.5 - 0.2 * n - 0.5j)

    def solve(F):
        return hamelflow.linear.solve_linear(
            flow, grid, boundary, hamelflow.linear.SourceSpectrum(n_max, F))

    both, one, two = solve(f1 + f2), solve(f1), solve(f2)
    worst = 0.0
    for key in ("gamma", "w"):
        a = getattr(both, key)
        diff = a - getattr(one, key) - getattr(two, key)
        worst = max(worst, float(np.abs(diff).max() / np.abs(a).max()))
    return worst
