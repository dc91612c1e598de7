"""``repro trace report`` / ``repro trace validate`` — trace analysis.

Reads a JSONL trace produced by :mod:`repro.telemetry` (possibly merged
from many worker processes) and renders:

* a per-span-name **phase breakdown** — count, total, self, mean, and
  max duration, sorted by total time, which is the "where did the
  campaign's wall clock go" table.  *Self* time is a span's duration
  minus that of its direct children in the same process (found through
  the recorded ``parent_id``/``span_id`` links), so nested layers are
  not counted twice.  A pool worker's spans name the span that forked
  it as their parent, but they run beside it, not inside its time, so
  they are not subtracted;
* the **top-N slowest rows** (``experiment.row`` spans) with their keys
  and statuses — the first thing to look at when one cell of a matrix
  dominates a run;
* per-process **counter totals** summed across workers.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .schema import validate_trace
from .trace import iter_trace


@dataclass
class SpanStats:
    """Aggregated timing for one span name."""

    count: int = 0
    total_s: float = 0.0
    #: ``total_s`` minus the duration of every direct child span in the
    #: same process
    self_s: float = 0.0
    max_s: float = 0.0

    @property
    def mean_s(self) -> float:
        """Mean duration (0 when no spans were recorded)."""
        return self.total_s / self.count if self.count else 0.0


@dataclass
class TraceSummary:
    """Everything the report renders, parsed once."""

    n_records: int = 0
    pids: set[int] = field(default_factory=set)
    spans: dict[str, SpanStats] = field(default_factory=dict)
    rows: list[dict[str, Any]] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    meta: list[dict[str, Any]] = field(default_factory=list)


def summarize_trace(path: str | Path) -> TraceSummary:
    """Parse and aggregate a trace file into a :class:`TraceSummary`."""
    summary = TraceSummary()
    counters: dict[str, int] = defaultdict(int)
    # span id -> (its stats, its pid); (parent span id, child pid) ->
    # summed child durations (children are written before their
    # parent, so settle at the end)
    stats_of: dict[str, tuple[SpanStats, Any]] = {}
    child_s: dict[tuple[str, Any], float] = defaultdict(float)
    for _lineno, record in iter_trace(path):
        summary.n_records += 1
        pid = record.get("pid")
        if isinstance(pid, int):
            summary.pids.add(pid)
        kind = record.get("kind")
        if kind == "span":
            name = str(record.get("name"))
            stats = summary.spans.setdefault(name, SpanStats())
            dur = float(record.get("dur_s", 0.0))
            stats.count += 1
            stats.total_s += dur
            stats.self_s += dur
            stats.max_s = max(stats.max_s, dur)
            stats_of[str(record.get("span_id"))] = (stats, pid)
            parent = record.get("parent_id")
            if parent is not None:
                child_s[(str(parent), pid)] += dur
            if name == "experiment.row":
                summary.rows.append(record)
        elif kind == "counter":
            counters[str(record.get("name"))] += int(record.get("value", 0))
        elif kind == "gauge":
            summary.gauges[str(record.get("name"))] = float(
                record.get("value", 0.0)
            )
        elif kind == "meta":
            summary.meta.append(record)
    for (parent, pid), dur in child_s.items():
        # the parent may be lost with a crashed worker
        stats, parent_pid = stats_of.get(parent, (None, None))
        if stats is not None and parent_pid == pid:
            stats.self_s -= dur
    summary.counters = dict(counters)
    return summary


def render_report(path: str | Path, top: int = 10) -> str:
    """Render the human-readable report for one trace file."""
    summary = summarize_trace(path)
    lines: list[str] = []
    lines.append(f"trace report — {path}")
    lines.append(
        f"{summary.n_records} records from "
        f"{len(summary.pids)} process(es): "
        f"{sorted(summary.pids)}"
    )
    lines.append("")

    if summary.spans:
        lines.append("per-phase time breakdown (by total duration)")
        lines.append(
            f"{'span':<28} {'count':>7} {'total':>10} {'self':>10} "
            f"{'mean':>10} {'max':>10}"
        )
        ordered = sorted(
            summary.spans.items(), key=lambda kv: -kv[1].total_s
        )
        for name, stats in ordered:
            lines.append(
                f"{name:<28} {stats.count:>7} "
                f"{stats.total_s * 1e3:>8.1f}ms "
                f"{stats.self_s * 1e3:>8.1f}ms "
                f"{stats.mean_s * 1e3:>8.2f}ms "
                f"{stats.max_s * 1e3:>8.1f}ms"
            )
        lines.append("")

    if summary.rows:
        slowest = sorted(
            summary.rows, key=lambda r: -float(r.get("dur_s", 0.0))
        )[:top]
        lines.append(f"top {len(slowest)} slowest rows (experiment.row)")
        lines.append(f"{'row key':<36} {'dur':>10} {'status':>8} {'pid':>7}")
        for r in slowest:
            attrs = r.get("attrs", {})
            key = str(attrs.get("key", "?"))
            status = str(attrs.get("status", "?"))
            lines.append(
                f"{key:<36} {float(r.get('dur_s', 0.0)) * 1e3:>8.1f}ms "
                f"{status:>8} {r.get('pid', '?'):>7}"
            )
        lines.append("")

    if summary.counters:
        lines.append("counter totals (summed over processes)")
        for name in sorted(summary.counters):
            lines.append(f"  {name:<28} {summary.counters[name]:>14,}")
        lines.append("")
    if summary.gauges:
        lines.append("gauges (last value wins per process)")
        for name in sorted(summary.gauges):
            lines.append(f"  {name:<28} {summary.gauges[name]:>14,.0f}")
        lines.append("")
    return "\n".join(lines)


def run_trace_cli(
    action: str, path: str, top: int = 10, quiet: bool = False
) -> int:
    """CLI driver for ``repro trace {report,validate}``.

    ``validate`` prints every schema violation with its line number and
    exits 1 on the first invalid trace; ``report`` renders the summary
    (after a validation pass — reporting on a malformed trace would
    produce silently wrong numbers).
    """
    trace_path = Path(path)
    if not trace_path.exists():
        print(f"error: no such trace file: {trace_path}")
        return 2
    try:
        errors = list(validate_trace(trace_path))
    except ValueError as exc:
        print(f"error: {exc}")
        return 1
    if action == "validate":
        if errors:
            for lineno, err in errors:
                print(f"{trace_path}:{lineno}: {err}")
            print(f"INVALID: {len(errors)} schema violation(s)")
            return 1
        if not quiet:
            n = sum(1 for _ in iter_trace(trace_path))
            print(f"ok: {trace_path} ({n} records, schema-valid)")
        return 0
    if errors:
        lineno, err = errors[0]
        print(
            f"error: trace is not schema-valid "
            f"(first violation at line {lineno}: {err}); "
            f"run `repro trace validate` for the full list"
        )
        return 1
    print(render_report(trace_path, top=top))
    return 0
