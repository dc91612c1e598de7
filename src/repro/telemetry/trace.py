"""Zero-dependency tracing and metrics for the reproduction's hot layers.

Design constraints, in priority order:

1. **Disabled means free.**  Every instrumentation site pays one module
   function call plus one global check when telemetry is off — no
   timestamp reads, no allocation beyond the kwargs dict at ``span()``
   call sites (which sit at iteration/row granularity, never inside
   per-gate or per-conflict loops).  docs/OBSERVABILITY.md reports a
   measured campaign, traced and untraced.
2. **One process-global pipeline.**  Spans, counters, and gauges flow to
   a single configured :class:`Sink`.  ``threading.local`` keeps the
   span stack per-thread; a lock guards counter aggregation; JSONL
   writes are a single ``os.write`` to an ``O_APPEND`` descriptor, so
   many worker *processes* can fan records into the same trace file
   without interleaving partial lines (POSIX appends of one short line
   are atomic).
3. **Spans are hierarchical and cheap to read back.**  Each span record
   carries ``span_id``/``parent_id`` (unique across processes via the
   pid) plus a ``dur_s`` measured with ``perf_counter``, so the report
   tool can reconstruct per-phase time without clock arithmetic.

Typical use::

    from repro import telemetry

    telemetry.configure(path="trace.jsonl")
    with telemetry.span("sat.iteration", dip=7) as sp:
        ...
        sp.set(conflicts=123)
    telemetry.counter_add("attack.dips")
    telemetry.shutdown()          # flush counter totals, close the sink
"""

from __future__ import annotations

import atexit
import itertools
import json
import os
import threading
import time
import warnings
from pathlib import Path
from typing import Any, Iterator, Mapping

__all__ = [
    "Span",
    "NOOP_SPAN",
    "Sink",
    "JsonlSink",
    "MemorySink",
    "configure",
    "shutdown",
    "enabled",
    "span",
    "timed_span",
    "current_span",
    "counter_add",
    "gauge_set",
    "counter_totals",
    "flush_counters",
    "emit_meta",
]


# --------------------------------------------------------------------- #
# sinks


class Sink:
    """Destination for finished telemetry records (dicts)."""

    def write(self, record: Mapping[str, Any]) -> None:  # pragma: no cover
        raise NotImplementedError

    def close(self) -> None:
        """Release resources; further writes are undefined."""


class JsonlSink(Sink):
    """Append-only JSON-lines sink, safe across threads *and* processes.

    The file is opened ``O_APPEND`` and every record is serialized to one
    line emitted with a single :func:`os.write` — on POSIX, concurrent
    appenders (e.g. the :class:`~repro.experiments.runner.ExperimentRunner`
    worker pool) therefore never interleave partial lines.

    A write failing with ``OSError`` (disk full, trace file on a
    filesystem gone read-only) **degrades** the sink: the descriptor is
    closed, every later write becomes a no-op, and a one-time warning is
    issued — observability must never cost the campaign its rows.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._fd: int | None = os.open(
            self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        self._lock = threading.Lock()
        self.degraded = False

    def write(self, record: Mapping[str, Any]) -> None:
        line = json.dumps(record, separators=(",", ":"), sort_keys=True)
        data = line.encode() + b"\n"
        with self._lock:
            if self._fd is None:
                return
            try:
                os.write(self._fd, data)
            except OSError as exc:
                self.degraded = True
                try:
                    os.close(self._fd)
                except OSError:
                    pass
                self._fd = None
                counter_add("telemetry.degraded")
                warnings.warn(
                    f"telemetry sink {self.path} degraded after a failed "
                    f"write ({exc}); further records are dropped",
                    RuntimeWarning,
                    stacklevel=3,
                )

    def close(self) -> None:
        with self._lock:
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None


class MemorySink(Sink):
    """In-memory record list — tests and the bench harness use this."""

    def __init__(self) -> None:
        self.records: list[dict[str, Any]] = []
        self._lock = threading.Lock()

    def write(self, record: Mapping[str, Any]) -> None:
        with self._lock:
            self.records.append(dict(record))

    def of_kind(self, kind: str) -> list[dict[str, Any]]:
        """Records filtered by ``kind`` (span/counter/gauge/meta)."""
        with self._lock:
            return [r for r in self.records if r.get("kind") == kind]


# --------------------------------------------------------------------- #
# global state

_enabled = False
_sink: Sink | None = None
_sink_path: Path | None = None
_counters: dict[str, int] = {}
_gauges: dict[str, float] = {}
_counter_lock = threading.Lock()
_tls = threading.local()
_span_seq = itertools.count(1)
_atexit_registered = False


def _stack() -> list["Span"]:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = []
        _tls.stack = stack
    return stack


def enabled() -> bool:
    """True when a sink is configured and records are being collected."""
    return _enabled


def configure(
    sink: Sink | None = None, *, path: str | Path | None = None
) -> Sink:
    """Enable telemetry, routing records to ``sink`` (or a
    :class:`JsonlSink` on ``path``).

    Reconfiguring with the same ``path`` is a no-op (worker processes
    call this once per task batch); a different sink flushes and
    replaces the old one.  Returns the active sink.
    """
    global _enabled, _sink, _sink_path, _atexit_registered
    if sink is None and path is None:
        raise ValueError("configure() needs a sink or a path")
    if sink is None:
        assert path is not None
        p = Path(path)
        if _enabled and _sink_path is not None and _sink_path == p:
            assert _sink is not None
            return _sink  # already streaming there (idempotent re-entry)
        sink = JsonlSink(p)
        new_path: Path | None = p
    else:
        new_path = None
    if _sink is not None and _sink is not sink:
        flush_counters()
        _sink.close()
    _sink = sink
    _sink_path = new_path
    _enabled = True
    if not _atexit_registered:
        # worker processes exit through the pool's normal shutdown path,
        # so their counter totals still reach the shared trace file
        atexit.register(shutdown)
        _atexit_registered = True
    return sink


def shutdown() -> None:
    """Flush counter/gauge totals, close the sink, and disable."""
    global _enabled, _sink, _sink_path
    if not _enabled:
        return
    flush_counters()
    if _sink is not None:
        _sink.close()
    _sink = None
    _sink_path = None
    _enabled = False
    with _counter_lock:
        _counters.clear()
        _gauges.clear()


def _emit(record: dict[str, Any]) -> None:
    sink = _sink
    if sink is not None:
        sink.write(record)


# --------------------------------------------------------------------- #
# spans


class Span:
    """One timed, attributed region of execution.

    Use as a context manager; :meth:`set` adds attributes before exit.
    ``duration_s`` is valid after ``__exit__`` (measured with
    ``perf_counter``), whether or not a sink consumed the record — the
    bench harness relies on that for its measurements.
    """

    __slots__ = (
        "name",
        "attrs",
        "span_id",
        "parent_id",
        "ts",
        "duration_s",
        "_t0",
    )

    def __init__(self, name: str, attrs: dict[str, Any]) -> None:
        self.name = name
        self.attrs = attrs
        self.span_id = f"{os.getpid():x}-{next(_span_seq)}"
        self.parent_id: str | None = None
        self.ts = 0.0
        self.duration_s = 0.0
        self._t0 = 0.0

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes to the span record; returns self."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        stack = _stack()
        if stack:
            self.parent_id = stack[-1].span_id
        stack.append(self)
        self.ts = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        self.duration_s = time.perf_counter() - self._t0
        stack = _stack()
        if stack and stack[-1] is self:
            stack.pop()
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        if _enabled:
            _emit(
                {
                    "kind": "span",
                    "name": self.name,
                    "ts": round(self.ts, 6),
                    "dur_s": round(self.duration_s, 9),
                    "pid": os.getpid(),
                    "span_id": self.span_id,
                    "parent_id": self.parent_id,
                    "attrs": self.attrs,
                }
            )
        return False


class _NoopSpan:
    """Shared do-nothing span returned while telemetry is disabled."""

    __slots__ = ()
    name = ""
    attrs: dict[str, Any] = {}
    span_id = ""
    parent_id = None
    duration_s = 0.0

    def set(self, **attrs: Any) -> "_NoopSpan":
        return self

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        return False


NOOP_SPAN = _NoopSpan()


def span(name: str, **attrs: Any) -> Span | _NoopSpan:
    """Open a span (context manager).  No-op when telemetry is disabled.

    Call sites must sit at iteration/row granularity — the disabled cost
    is one call and one global read, but the *enabled* cost includes a
    record per entry.
    """
    if not _enabled:
        return NOOP_SPAN
    return Span(name, attrs)


def timed_span(name: str, **attrs: Any) -> Span:
    """Like :func:`span` but always returns a real, timed :class:`Span`.

    The record is emitted only when telemetry is enabled, but
    ``duration_s`` is measured regardless — the bench suite times its
    workloads through this, replacing hand-rolled ``perf_counter``
    loops with the same span vocabulary the tracer uses.
    """
    return Span(name, attrs)


def current_span() -> Span | None:
    """Innermost open span of this thread (None outside any span)."""
    stack = _stack()
    return stack[-1] if stack else None


# --------------------------------------------------------------------- #
# counters / gauges


def counter_add(name: str, n: int = 1) -> None:
    """Accumulate a monotonic counter (emitted as totals at flush)."""
    if not _enabled:
        return
    with _counter_lock:
        _counters[name] = _counters.get(name, 0) + n


def gauge_set(name: str, value: float) -> None:
    """Record the latest value of a gauge."""
    if not _enabled:
        return
    with _counter_lock:
        _gauges[name] = value


def counter_totals() -> dict[str, int]:
    """Snapshot of this process's counter totals."""
    with _counter_lock:
        return dict(_counters)


def flush_counters() -> None:
    """Emit one record per counter/gauge with this process's totals.

    Campaign drivers call this (via :func:`shutdown`) once at the end;
    every campaign row flushes when it finishes (a pool worker's
    ``os._exit`` skips ``atexit``), so a merged trace may carry several
    totals records per (counter, pid) — consumers must sum them.
    """
    if not _enabled:
        return
    ts = round(time.time(), 6)
    pid = os.getpid()
    with _counter_lock:
        counters = sorted(_counters.items())
        gauges = sorted(_gauges.items())
        _counters.clear()
        _gauges.clear()
    for name, total in counters:
        _emit(
            {
                "kind": "counter",
                "name": name,
                "value": total,
                "ts": ts,
                "pid": pid,
            }
        )
    for name, val in gauges:
        _emit(
            {"kind": "gauge", "name": name, "value": val, "ts": ts, "pid": pid}
        )


def emit_meta(event: str, **attrs: Any) -> None:
    """Write a ``meta`` record (campaign start/end markers, environment)."""
    if not _enabled:
        return
    _emit(
        {
            "kind": "meta",
            "event": event,
            "ts": round(time.time(), 6),
            "pid": os.getpid(),
            "attrs": attrs,
        }
    )


def iter_trace(path: str | Path) -> Iterator[tuple[int, dict[str, Any]]]:
    """Yield ``(line_number, record)`` pairs from a JSONL trace file.

    Malformed lines raise ``ValueError`` with the offending line number —
    a truncated trace should fail loudly, not silently drop records.
    """
    with open(path, "r", encoding="utf-8") as fh:
        for i, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield i, json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{i}: malformed JSON ({exc})") from exc
