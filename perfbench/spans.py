"""Spans and counts recorded around the benchmark's own calls into macroq.

Spans live in memory and are summarised once a pass ends.  A span's self time
is its duration minus the time covered by the spans opened inside it.  The
untraced run uses :class:`Off`, whose methods do nothing, so end-to-end
timings carry no tracing cost.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext


class Tracer:
    """Records (name, start, end, parent, request) spans and named counts."""

    enabled = True

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.request = None
        self._open = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.request])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def summary(self) -> dict:
        """Total time ("<name>_s"), self time ("<name>.self_s") and counts."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = dict(self.counts)
        for (name, start, end, _, _), inner in zip(self.spans, child_time):
            out[f"{name}_s"] = out.get(f"{name}_s", 0.0) + (end - start)
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + (end - start - inner)
        return out


class Off:
    """Stand-in for :class:`Tracer` that records nothing."""

    enabled = False

    def __init__(self):
        self.request = None

    def span(self, name: str):
        return nullcontext()

    def count(self, name: str, n: float = 1) -> None:
        pass

