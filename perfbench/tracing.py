"""Span recording around the public calls the benchmark makes.

A span is ``[name, start, end, parent, op]``: ``parent`` indexes the
enclosing span (-1 for none) and ``op`` is the op index, or "setup". Spans
stay in memory and are written out once, when the run ends. Self time is a
span's duration minus the time its direct children cover.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter


class NullTracer:
    """Untraced runs: calls go straight through."""

    traced = False
    op: int | str = "setup"

    def call(self, name, fn, /, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name: str, value: float = 1) -> None:
        pass

    def maximum(self, name: str, value: float) -> None:
        pass


class Tracer(NullTracer):
    traced = True

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.maxima: dict[str, float] = {}

    @contextmanager
    def span(self, name: str):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def call(self, name, fn, /, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def add(self, name: str, start: float, end: float) -> None:
        """A finished span measured elsewhere (a child process), nested in the current one."""
        self.spans.append([name, start, end, self._stack[-1] if self._stack else -1, self.op])

    def count(self, name: str, value: float = 1) -> None:
        if self.op != "setup":
            self.counts[name] = self.counts.get(name, 0) + value

    def maximum(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima.get(name, value), value)

    def self_times(self, factors, setup_factor: float):
        """Self seconds per span name, split into set-up and op phase, and
        op-phase call counts per name. Each span is divided by the speed
        factor of its op (``factors[op]``) or of set-up."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        setup: dict[str, float] = {}
        ops: dict[str, float] = {}
        calls: dict[str, int] = {}
        for (name, start, end, _, op), inner in zip(self.spans, child_time):
            bucket = setup if op == "setup" else ops
            factor = setup_factor if op == "setup" else factors[op]
            bucket[name] = bucket.get(name, 0.0) + (end - start - inner) / factor
            if op != "setup":
                calls[name] = calls.get(name, 0) + 1
        return setup, ops, calls

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ["name", "start", "end", "parent", "op"]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": fields, "spans": self.spans}, fh)
