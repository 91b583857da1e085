"""In-memory span tracer that wraps public functions from outside the program.

A function is wrapped at the module attribute where its caller looks it up
(``hamelflow.solve.solve_linear`` is the name ``picard_solve`` calls), so no
program file changes.  Each call records a span: name, layer, start, end,
parent span, job id, and any counts the wrap's ``count`` hook reads from the
arguments and the result.  Spans stay in memory; metrics are derived after
the run.  ``restore`` (or leaving the ``with`` block) puts every original
function back.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    layer: str
    start: float
    parent: int | None
    job: int | None
    end: float = float("nan")
    error: str | None = None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.job: int | None = None
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def open(self, name: str, layer: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        self.spans.append(Span(name, layer, self.clock(), parent, self.job))
        idx = len(self.spans) - 1
        stack.append(idx)
        return idx

    def close(self, idx: int) -> Span:
        span = self.spans[idx]
        span.end = self.clock()
        stack = self._stack()
        if not stack or stack[-1] != idx:
            raise RuntimeError(f"span {span.name} closed out of order")
        stack.pop()
        return span

    @contextlib.contextmanager
    def job_span(self, job: int, name: str = "job"):
        """Root span of one job; yields the span."""
        self.job = job
        idx = self.open(name, "bench")
        try:
            yield self.spans[idx]
        finally:
            self.close(idx)
            self.job = None

    # -- wrapping ----------------------------------------------------------

    def wrap(self, module, attr: str, layer: str, count=None):
        """Replace ``module.attr`` by a recording wrapper.

        ``count(args, kwargs, result, exc)`` returns a dict of counts for the
        span; ``result`` is None when the call raised ``exc``.
        """
        original = getattr(module, attr)
        tracer = self
        name = f"{layer}.{attr}"

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name, layer)
            result = exc = None
            try:
                result = original(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                span = tracer.close(idx)
                if exc is not None:
                    span.error = type(exc).__name__
                if count is not None:
                    span.counts = count(args, kwargs, result, exc)

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))

    def restore(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- derived quantities ------------------------------------------------

    def self_times(self) -> list[float]:
        """Duration of each span minus the durations of its direct children."""
        out = [s.duration for s in self.spans]
        for span in self.spans:
            if span.parent is not None:
                out[span.parent] -= span.duration
        return out
