"""In-memory spans for the traced run.

``Tracer.span(name)`` is a timer in both modes, so untraced and traced
runs time the same calls the same way; only a traced run keeps the span
(name, start, end, parent, op id).  Spans stay in memory and are written
out when the run ends.  Spans are opened from the benchmark's main
thread only; code that runs on the virtual machine's rank threads is
timed with :meth:`Tracer.accumulate` instead.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict


class _Span:
    __slots__ = ("tracer", "name", "op", "parent", "start", "end")

    def __init__(self, tracer: "Tracer", name: str, op: "int | None"):
        self.tracer = tracer
        self.name = name
        self.op = op
        self.parent = None
        self.start = self.end = 0.0

    @property
    def elapsed(self) -> float:
        return self.end - self.start

    def __enter__(self) -> "_Span":
        tr = self.tracer
        if tr.enabled:
            if tr._stack:
                self.parent = tr._stack[-1]
                if self.op is None:
                    self.op = tr.spans[self.parent].op
            tr._stack.append(len(tr.spans))
            tr.spans.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.end = time.perf_counter()
        if self.tracer.enabled:
            self.tracer._stack.pop()


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[_Span] = []
        self._stack: list[int] = []
        self._ops = 0
        self.t0 = time.perf_counter()

    def op(self) -> int:
        """A fresh id shared by the spans of one operation."""
        self._ops += 1
        return self._ops

    def span(self, name: str, op: "int | None" = None) -> _Span:
        return _Span(self, name, op)

    @staticmethod
    def accumulate(sink: list, fn):
        """*fn* appending each call's duration to *sink* (thread-safe:
        ``list.append`` is atomic)."""

        @functools.wraps(fn)
        def timed(*args, **kw):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kw)
            finally:
                sink.append(time.perf_counter() - t0)

        return timed

    def self_times(self, root: str) -> dict:
        """name -> summed self time (duration minus direct children) of
        the spans under top-level spans named *root*."""
        top = [0] * len(self.spans)
        child = [0.0] * len(self.spans)
        for i, s in enumerate(self.spans):  # parents precede their children
            if s.parent is None:
                top[i] = i
            else:
                top[i] = top[s.parent]
                child[s.parent] += s.elapsed
        out: dict = defaultdict(float)
        for i, s in enumerate(self.spans):
            if self.spans[top[i]].name == root:
                out[s.name] += s.elapsed - child[i]
        return dict(out)

    def dump(self, path: str) -> None:
        rows = [
            {"id": i, "name": s.name, "op": s.op, "parent": s.parent,
             "start": s.start - self.t0, "end": s.end - self.t0}
            for i, s in enumerate(self.spans)
        ]
        with open(path, "w") as fh:
            json.dump(rows, fh)
