"""Measurement loops of the benchmark; ``run.py`` is the entry point."""

from __future__ import annotations

import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

import layers
from tracing import Tracer
from workloads import FAIL_WRONG, OK, OUTCOMES

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_REPS = 3

SETUP_CODE = """
import sys
import hamelflow.cli
from hamelflow.config import build_boundary, load_config, solver_config
cfg = load_config(sys.argv[1])
sc = solver_config(cfg)
build_boundary(cfg, sc)
sc.make_grid()
"""


def child_env():
    env = dict(os.environ)
    env.pop("HAMEL_THREADS", None)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def measure_setup(config_path, env):
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, config_path],
                       cwd=ROOT, env=env, check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), len(times)


def run_environment():
    import scipy

    def getconf(name):
        try:
            out = subprocess.run(["getconf", name], capture_output=True,
                                 text=True, timeout=10).stdout.strip()
            return int(out) if out else None
        except (OSError, ValueError, subprocess.SubprocessError):
            return None

    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "l2_bytes": getconf("LEVEL2_CACHE_SIZE"),
            "l3_bytes": getconf("LEVEL3_CACHE_SIZE"),
            "HAMEL_THREADS": os.environ.get("HAMEL_THREADS")}


def tail(values):
    """(value, q) at the highest quantile q with >= 10 samples beyond it;
    the median when fewer than 20 samples exist."""
    q = max(0.5, 1.0 - 10.0 / len(values))
    return float(np.quantile(values, q)), q


def report_wrong(i, ops):
    wrong = [o for o in ops if o.kind == FAIL_WRONG]
    if wrong:
        print(f"check failed in job {i}: {wrong[0].detail}", file=sys.stderr)


def reference_kernel(clock):
    """Seconds for a fixed pure-Python task: float formatting, joining and
    dict work, the interpreter work that dominates the jobs.  It is the
    benchmark's own code, so a change to the program does not move it; it
    moves with the speed of the core, which on a shared host can shift by a
    third for minutes at a time."""
    t0 = clock()
    text = ",".join(["%.17g" % (i * 1.0001) for i in range(20000)])
    table = {i: i * i for i in range(30000)}
    if len(text) < 20000 or sum(table.values()) <= 0:
        raise AssertionError("reference kernel computed nothing")
    return clock() - t0


def run_jobs(workload, clock, deadline, min_jobs):
    """Cycle through the pool; once ``min_jobs`` jobs are done and the clock
    is past ``deadline``, stop.  The reference kernel runs before the first
    job and after every job.  Returns (seconds, outcomes) per job and the
    reference seconds, one more than there are jobs."""
    jobs, refs = [], [reference_kernel(clock)]
    for job in itertools.count():
        if job >= min_jobs and clock() >= deadline:
            return jobs, refs
        i = job % workload.pool_size
        jobs.append(workload.attempt(i, clock))
        refs.append(reference_kernel(clock))
        report_wrong(i, jobs[-1][1])


def reference_at(refs, job, reach=3):
    """Reference seconds for a job: the median of the reference runs from
    ``reach`` before it to ``reach`` after it.  One run samples a speed that
    also flips for fractions of a second; the median over its neighbours
    follows the shifts that last minutes and not the flips."""
    return statistics.median(refs[max(0, job + 1 - reach):job + 1 + reach])


def summarize(outcomes):
    counts = {k: sum(o.kind == k for o in outcomes) for k in OUTCOMES}
    ns = [v for o in outcomes if o.kind == OK for v in o.ns]
    return counts, len(outcomes), len(outcomes) - counts[OK], ns


def measure(args, workload, env):
    clock = time.perf_counter
    metrics = {}
    setup, n_setup = measure_setup(write_config(workload), env)
    metrics["setup_s"] = (setup, "s", n_setup)

    pool = workload.pool_size
    workload.attempt(pool - 1, clock)   # warm-up, not counted
    # At least one whole pass: the residual and the failure share are taken
    # over the first pass, so they depend on the seed alone, not on how many
    # jobs fit in the time (later passes repeat the same outcomes).
    jobs, refs = run_jobs(workload, clock, clock() + args.seconds,
                          min_jobs=pool)
    outcomes = [o for _, ops in jobs for o in ops]
    counts, attempted, failed, _ = summarize(outcomes)
    first, n_first, _, ns = summarize([o for _, ops in jobs[:pool]
                                       for o in ops])
    timed = [(t, reference_at(refs, job)) for job, (t, ops) in enumerate(jobs)
             if not any(o.kind == FAIL_WRONG for o in ops)]
    n = len(timed)
    if n:
        rel = [t / ref for t, ref in timed]
        metrics["job_ref.p50"] = (statistics.median(rel), "ref", n)
        value, q = tail(rel)
        metrics["job_ref.tail"] = (value, "ref", n)
        print(f"job_ref.tail is p{100 * q:.1f} of {n} jobs; wall time "
              f"p50 {statistics.median(t for t, _ in timed):.4f} s, "
              f"reference kernel p50 {1e3 * statistics.median(refs):.3f} ms")
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1)
    if ns:
        metrics["ns_residual.max"] = (max(ns), "1", len(ns))
    metrics["ok_frac"] = (first[OK] / n_first, "1", n_first)
    print("operations: " + ", ".join(f"{k}={counts[k]}" for k in OUTCOMES))
    # A run without a verified solution cannot vouch for its outputs.
    return metrics, attempted, failed, counts[FAIL_WRONG] == 0 and bool(ns)


def measure_traced(args, workload, env):
    clock = time.perf_counter
    metrics = {}
    for name, (value, unit) in layers.import_metrics(ROOT, env).items():
        metrics[name] = (value, unit, 3)
    for name, (value, unit) in layers.config_metrics(
            write_config(workload)).items():
        metrics[name] = (value, unit, 20)
    metrics["grid.quad_order"] = (layers.quad_order(), "1", 12)
    metrics["linear.superposition_err"] = (layers.superposition_err(), "1", 3)

    pool = workload.pool_size
    workload.attempt(pool - 1, clock)   # warm-up, not counted
    tracer = Tracer(clock)
    plain, traced, outcomes = [], [], []
    deadline = clock() + args.seconds
    # Whole passes.  Each job runs untraced and then traced on the same
    # input; the pair gives the tracing overhead.
    while not traced or clock() < deadline:
        for i in range(pool):
            plain.append(workload.attempt(i, clock)[0])
            with tracer:
                layers.install(tracer)
                with tracer.job_span(len(traced)) as root:
                    _, ops = workload.attempt(i, clock)
            traced.append(root.duration)
            outcomes += ops
            report_wrong(i, ops)
    counts, attempted, failed, _ = summarize(outcomes)
    n_jobs = len(traced)
    for name, (value, unit) in layers.layer_metrics(tracer, n_jobs).items():
        metrics[name] = (value, unit, n_jobs)
    # The known-failure inputs run once, untraced, outside the jobs; a pass
    # counts them once.
    probed, _, _, _ = summarize(workload.probes())
    passes = n_jobs // pool
    for kind in OUTCOMES[1:]:
        metrics[kind] = (counts[kind] / passes + probed[kind], "count/pass",
                         passes)
    metrics["fail_frac"] = (failed / attempted, "1", attempted)
    metrics["job_s.p50"] = (statistics.median(plain), "s", n_jobs)
    refs = [reference_kernel(clock) for _ in range(20)]
    metrics["ref_ms"] = (1e3 * statistics.median(refs), "ms", len(refs))
    metrics["trace.job_s.p50"] = (statistics.median(traced), "s", n_jobs)
    metrics["trace.overhead_ms"] = (
        1e3 * statistics.median(t - p for t, p in zip(traced, plain)), "ms",
        n_jobs)
    return metrics, attempted, failed, counts[FAIL_WRONG] == 0


def write_config(workload):
    path = os.path.join(workload.workdir, "setup.json")
    with open(path, "w") as fh:
        json.dump(workload.setup_config(), fh)
    return path
