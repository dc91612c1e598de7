"""In-memory span recorder for the benchmark's traced runs.

A span is ``(name, start, end, parent)``.  The benchmark runs one
harness call serially in one thread, so spans nest strictly: a child's
interval lies inside its parent's.  A layer's self time is the sum over
its spans of the span's duration minus the durations of its direct
children; a layer re-entered under itself (``run_rows`` calling
``run_row``) or under another layer (``lock_weighted`` calling the
ranking) is charged only for the part no child covers.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable


@dataclass
class Span:
    """One timed call into a layer (``parent`` indexes the span list)."""

    name: str
    start: float
    end: float = 0.0
    parent: int | None = None


class Tracer:
    """Records spans and per-layer work counters in memory.

    Nothing is written out until the harness call returns; the worker
    then serialises :attr:`spans` and :attr:`counters` once.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        """Open a span under the innermost open one; returns its index."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int) -> None:
        """Close the innermost span, which must be ``index``."""
        self.spans[index].end = time.perf_counter()
        if self._stack.pop() != index:
            raise RuntimeError(f"span {self.spans[index].name} closed out of order")

    def add(self, counter: str, n: int = 1) -> None:
        """Add ``n`` to a work counter."""
        self.counters[counter] += n

    def wrap(
        self,
        layer: str,
        fn: Callable[..., Any],
        count: Callable[..., None] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` with each call timed as one ``layer`` span.

        ``count(tracer, result, *args, **kwargs)``, when given, records
        the call's work counters after the span has closed.
        """

        def wrapped(*args: Any, **kwargs: Any) -> Any:
            index = self.begin(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
                self.add(f"{layer}.calls")
            if count is not None:
                count(self, result, *args, **kwargs)
            return result

        return wrapped


def self_times(spans: list[Span]) -> dict[str, float]:
    """Self time per span name, in seconds."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.end - span.start
    out: dict[str, float] = defaultdict(float)
    for span, child_time in zip(spans, covered):
        out[span.name] += span.end - span.start - child_time
    return dict(out)
