"""Tests of the benchmark's tracer.  Run: python3 -m pytest bench"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import layers  # noqa: E402
from tracing import Tracer  # noqa: E402
from hamelflow.grid import BoundarySpectrum  # noqa: E402
from hamelflow.solve import SolverConfig  # noqa: E402
import hamelflow.solve  # noqa: E402


def _small_boundary(n_max=4):
    vr = np.zeros(n_max + 1, dtype=complex)
    vt = np.zeros(n_max + 1, dtype=complex)
    vr[2], vt[1] = 0.01, 0.01j
    return BoundarySpectrum(n_max=n_max, vr=vr, vtheta=vt, phi0=2.5,
                            mu0=0.2, mu=0.2)


def test_restore_puts_back_every_wrapped_function():
    before = [getattr(m, a) for m, a, _, _ in layers.WRAPS]
    with Tracer() as tracer:
        layers.install(tracer)
        assert all(getattr(m, a) is not f
                   for (m, a, _, _), f in zip(layers.WRAPS, before))
    assert all(getattr(m, a) is f for (m, a, _, _), f in zip(layers.WRAPS,
                                                               before))


def test_restore_after_an_exception_inside_the_block():
    before = hamelflow.solve.solve_linear
    try:
        with Tracer() as tracer:
            layers.install(tracer)
            raise KeyError("boom")
    except KeyError:
        pass
    assert hamelflow.solve.solve_linear is before


def test_self_times_partition_the_job_wall_time():
    tracer = Tracer()
    config = SolverConfig(n_modes=4, nodes_per_decade=16, r_max=1e3)
    boundary = _small_boundary()
    with tracer:
        layers.install(tracer)
        t0 = time.perf_counter()
        with tracer.job_span(0) as root:
            hamelflow.solve.branch_sweep(boundary, [0.1, 0.2], config)
        wall = time.perf_counter() - t0

    spans, self_t = tracer.spans, tracer.self_times()
    root_idx = spans.index(root)
    children = [s for s in spans if s.parent == root_idx]
    assert children, "the sweep recorded no spans"
    assert abs(self_t[root_idx] + sum(c.duration for c in children)
               - root.duration) < 1e-9
    # Every span's self time is non-negative and together they are the job.
    assert min(self_t) > -1e-9
    assert abs(sum(self_t) - root.duration) < 1e-9
    assert 0.0 <= wall - root.duration < 1e-3
    names = {s.name for s in spans}
    assert {"solve.branch_sweep", "solve.picard_solve", "linear.solve_linear",
            "grid.integrate_out_all", "nonlin.compute_sources"} <= names


def test_counts_repeat_exactly():
    def run_once():
        tracer = Tracer()
        config = SolverConfig(n_modes=4, nodes_per_decade=16, r_max=1e3)
        with tracer:
            layers.install(tracer)
            with tracer.job_span(0):
                hamelflow.solve.branch_sweep(_small_boundary(), [0.1], config)
        m = layers.layer_metrics(tracer, 1)
        return {k: v for k, (v, unit) in m.items() if unit.startswith("count")}

    assert run_once() == run_once()


def test_importtime_parser_takes_outermost_family_members():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |         scipy._lib",
        "import time:        50 |        150 |       scipy",
        "import time:        20 |        400 |     scipy.signal",
        "import time:        10 |        500 |   hamelflow.grid",
        "import time:        10 |        520 | hamelflow",
        "import time:        30 |         30 |   click",
        "import time:        10 |         40 | hamelflow.cli",
    ])
    out = layers.parse_importtime(text)
    assert out["scipy"] == pytest.approx(400e-6)
    assert out["click"] == pytest.approx(30e-6)
    assert out["total"] == pytest.approx(560e-6)
