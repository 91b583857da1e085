"""hamelflow benchmark: one workload, one seed, a fixed measuring time.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the run reports the end-to-end metrics:

    setup_s        median wall time of a fresh interpreter that imports
                   hamelflow.cli, validates the workload's config and builds
                   its boundary and grid (3 runs)
    job_ref.p50    median warm time of one job whose outputs passed their
                   checks, in units of the reference kernel: each job's
                   wall time divided by the median time of a fixed
                   pure-Python task over its runs from three before the job
                   to three after it; the task runs between jobs
                   (harness.py)
    job_ref.tail   the highest percentile of the same ratios with >= 10
                   jobs beyond it (the median when there are fewer than 20)
    peak_rss_mb    peak resident memory of this process
    ns_residual.max  worst momentum residual over the verified solutions of
                   the first pass of the input pool
    ok_frac        verified operations / attempted operations over the
                   first pass of the input pool; an operation is a solve, a
                   shot trace or a battery check

On a shared host the speed of a core can shift by a third for minutes at
a time, with the load of other tenants, and that moves the wall times of
whole runs together; the ratio to the reference kernel, measured next to
every job, cancels most of the shift.  The wall times are
printed above the result line, and the traced run reports them as metrics.

With ``--trace 1`` it runs whole passes over the input pool, each job once
untraced and once with every layer's public functions wrapped, and reports
per-job layer metrics, import and config probes, accuracy probes, failure
counts (including inputs known to fail, run once outside the jobs), the
untraced wall time, the reference kernel's time and the tracing overhead
(traced minus untraced time of each pair).

Every job's output is checked.  The last stdout line is one JSON object
(correct, attempted, failed, metrics); the lines before it list every
metric with its unit and sample count, and the run environment.  The exit
code is 1 when an output check failed and 2 when the run could not start.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "hamelflow", "__init__.py")):
        print(f"error: no hamelflow sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("HAMEL_THREADS", None)   # measure the program default
    sys.path.insert(0, SRC)
    import hamelflow
    if os.path.dirname(os.path.abspath(hamelflow.__file__)) != \
            os.path.join(SRC, "hamelflow"):
        print(f"error: imported hamelflow from {hamelflow.__file__}",
              file=sys.stderr)
        return 2
    import harness
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    env = harness.child_env()
    workdir = os.path.join(ROOT, ".bench_work",
                           f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    try:
        run = harness.measure_traced if args.trace else harness.measure
        metrics, attempted, failed, correct = run(args, workload, env)
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    print("env " + json.dumps(harness.run_environment(), sort_keys=True))
    print(f"{'metric':<30} {'value':>14} {'unit':<10} samples")
    for name, (value, unit, n) in metrics.items():
        print(f"{name:<30} {value:>14.6g} {unit:<10} {n}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
