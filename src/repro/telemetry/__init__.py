"""Tracing and metrics (spans, counters, JSONL traces) for every layer.

The public surface is module-level and mirrors the shape of mature
tracing libraries while staying dependency-free:

* :func:`configure` / :func:`shutdown` — enable/disable the pipeline
  (disabled is the default, and costs one global check per site);
* :func:`span` — hierarchical timed regions (``with span("sat.solve")``);
* :func:`timed_span` — always-timed span for harnesses that *measure*
  (records are still only emitted when enabled);
* :func:`counter_add` / :func:`gauge_set` — aggregated per-process
  metrics, flushed as totals records;
* :class:`JsonlSink` / :class:`MemorySink` — trace destinations; the
  JSONL sink is safe for concurrent worker-process fan-in;
* :mod:`repro.telemetry.schema` — the span/counter catalog and record
  validation backing ``repro trace validate``;
* :mod:`repro.telemetry.report` — ``repro trace report`` rendering.
"""

from .trace import (
    NOOP_SPAN,
    JsonlSink,
    MemorySink,
    Sink,
    Span,
    configure,
    counter_add,
    counter_totals,
    current_span,
    emit_meta,
    enabled,
    flush_counters,
    gauge_set,
    iter_trace,
    shutdown,
    span,
    timed_span,
)
from .schema import (
    KNOWN_COUNTERS,
    KNOWN_GAUGES,
    KNOWN_SPANS,
    validate_record,
    validate_trace,
)
from .report import (
    SpanStats,
    TraceSummary,
    render_report,
    run_trace_cli,
    summarize_trace,
)

__all__ = [
    "NOOP_SPAN",
    "JsonlSink",
    "MemorySink",
    "Sink",
    "Span",
    "configure",
    "counter_add",
    "counter_totals",
    "current_span",
    "emit_meta",
    "enabled",
    "flush_counters",
    "gauge_set",
    "iter_trace",
    "shutdown",
    "span",
    "timed_span",
    "KNOWN_COUNTERS",
    "KNOWN_GAUGES",
    "KNOWN_SPANS",
    "validate_record",
    "validate_trace",
    "SpanStats",
    "TraceSummary",
    "render_report",
    "run_trace_cli",
    "summarize_trace",
]
