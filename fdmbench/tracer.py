"""In-memory span recorder for the traced run.

Spans are recorded by the benchmark's own code around its calls into the
program: name, start, end, parent span and the operation they belong to.
Nothing is written until ``dump`` at the end of the run.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from pathlib import Path


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.index = len(t.spans)
        parent = t._stack[-1] if t._stack else None
        t.spans.append([self.name, parent, t.op, time.perf_counter(), None])
        t._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.index][4] = time.perf_counter()
        t._stack.pop()
        return False

    @property
    def seconds(self) -> float:
        """Duration of the closed span."""
        _, _, _, start, end = self.tracer.spans[self.index]
        return end - start


class Tracer:
    """Records spans and counts; ``op`` tags spans with the current operation."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, op, start, end]
        self.counts: dict[str, float] = {}
        self.op: int | None = None
        self._stack: list[int] = []

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def durations(self, name: str) -> list[float]:
        return [s[4] - s[3] for s in self.spans if s[0] == name and s[4] is not None]

    def median(self, name: str) -> float:
        return statistics.median(self.durations(name))

    def records(self) -> list[dict]:
        """Spans with their self time: duration minus the time their children cover."""
        child_time = [0.0] * len(self.spans)
        for name, parent, op, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        return [
            {"id": k, "name": name, "parent": parent, "op": op, "start": start,
             "end": end, "self": (end - start) - child_time[k]}
            for k, (name, parent, op, start, end) in enumerate(self.spans)
        ]


class NullTracer:
    """Tracing off: spans cost one attribute lookup and a shared no-op context."""

    op = None
    _NULL = contextlib.nullcontext()

    def span(self, name: str):
        return self._NULL

    def count(self, name: str, n: float = 1) -> None:
        pass


def dump(path: Path, meta: dict, tracers: dict[str, Tracer]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "meta": meta,
        "tracers": {k: {"spans": t.records(), "counts": t.counts} for k, t in tracers.items()},
    }
    path.write_text(json.dumps(doc) + "\n")
