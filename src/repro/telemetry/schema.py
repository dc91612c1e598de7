"""Trace-record schema: the span/counter catalog plus record validation.

Every record in a ``*.jsonl`` trace must validate against this module —
the ``campaign-smoke`` CI job runs :func:`validate_trace` over a real
campaign trace and fails on the first violation, so the catalog below is
load-bearing: an instrumentation site emitting a name missing from
:data:`KNOWN_SPANS` / :data:`KNOWN_COUNTERS` breaks the build, which is
exactly how schema drift between emitters and the report tooling is
caught.

See ``docs/OBSERVABILITY.md`` for the prose catalog (what each span
measures and which attributes it carries).
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Iterator, Mapping

from .trace import iter_trace

#: every span name any instrumentation site may emit
KNOWN_SPANS = frozenset(
    {
        # sat layer
        "sat.solve",
        # ATPG layer: one span per run_atpg call, per fault-simulated
        # pattern block (repro.atpg.faultsim) and per SAT-ATPG fault
        # (repro.atpg.sattest)
        "atpg.run",
        "atpg.faultsim",
        "atpg.sat",
        # attack layer — one span per algorithm iteration
        "attack.run",
        "attack.sat.iteration",
        "attack.appsat.iteration",
        "attack.doubledip.iteration",
        "attack.hillclimb.restart",
        "attack.sensitization.round",
        # compiled-simulation layer: compile snapshots a netlist, each
        # program (materialized or fused) is built on first use
        "optape.compile",
        "optape.lower",
        "optape.run",
        # lock-site ranking (repro.locking.fll), memo hits included
        "locking.rank",
        # WLL key-gate insertion (repro.locking.wll), ranking included
        "locking.insert",
        # Table I area/delay resynthesis of both circuit versions
        "synth.overhead",
        # OraP elaboration of a design (repro.orap.scheme.protect)
        "orap.protect",
        # experiment layer
        "experiment.row",
        # supervised worker fleet (repro.runtime.supervisor)
        "supervisor.run",
        # content-addressed result cache (repro.cache)
        "cache.lookup",
        # bench harness measurements
        "bench.measure",
    }
)

#: every counter name any instrumentation site may emit
KNOWN_COUNTERS = frozenset(
    {
        "sat.conflicts",
        "sat.decisions",
        "sat.propagations",
        "attack.dips",
        "attack.oracle_queries",
        "optape.cache.hit",
        "optape.cache.miss",
        "optape.words",
        # fused-lane plan cache (repro.sim.fused) and
        # supervised-pool compile-cache pre-warm (experiments.runner)
        "optape.plan.build",
        "optape.plan.hit",
        "optape.compile.shared",
        # steps the forced lanes' cone cut did not run (repro.sim.fused)
        "optape.forced.steps_skipped",
        # lock-site ranking memo on the compiled engine (repro.locking.fll)
        "locking.rank.cached",
        "experiment.rows",
        "cache.hit",
        "cache.miss",
        "cache.evict",
        # robustness layer: process-level containment and degradation
        "supervisor.crashes",
        "supervisor.hangs",
        "supervisor.requeues",
        "supervisor.restarts",
        "supervisor.quarantined",
        "cache.degraded",
        "telemetry.degraded",
        "checkpoint.corrupt",
        # real-corpus ingestion (repro.corpus): parse-once memo
        "corpus.parse",
        "corpus.parse.cached",
        # anomaly counters: silent fallbacks made visible
        "atpg.verdict.disagree",
        "atpg.sat.aborted",
    }
)

#: gauges: latest-value metrics (clause-database size at last solve...)
KNOWN_GAUGES = frozenset(
    {
        "sat.clauses",
    }
)

_KINDS = frozenset({"span", "counter", "gauge", "meta"})

_REQUIRED: dict[str, tuple[tuple[str, type | tuple[type, ...]], ...]] = {
    "span": (
        ("name", str),
        ("ts", (int, float)),
        ("dur_s", (int, float)),
        ("pid", int),
        ("span_id", str),
        ("attrs", dict),
    ),
    "counter": (
        ("name", str),
        ("value", int),
        ("ts", (int, float)),
        ("pid", int),
    ),
    "gauge": (
        ("name", str),
        ("value", (int, float)),
        ("ts", (int, float)),
        ("pid", int),
    ),
    "meta": (
        ("event", str),
        ("ts", (int, float)),
        ("pid", int),
    ),
}


def validate_record(record: Mapping[str, Any]) -> str | None:
    """Validate one trace record; returns an error string or None.

    Checks the record kind, the per-kind required fields and types, and
    — for spans/counters/gauges — that the name is in the catalog
    (unknown names are schema drift, not extensibility).
    """
    kind = record.get("kind")
    if kind not in _KINDS:
        return f"unknown record kind {kind!r}"
    for field, types in _REQUIRED[kind]:
        if field not in record:
            return f"{kind} record missing field {field!r}"
        value = record[field]
        if isinstance(value, bool) or not isinstance(value, types):
            return (
                f"{kind} record field {field!r} has type "
                f"{type(value).__name__}, expected {types}"
            )
    if kind == "span":
        if record["name"] not in KNOWN_SPANS:
            return f"unknown span name {record['name']!r}"
        parent = record.get("parent_id")
        if parent is not None and not isinstance(parent, str):
            return "span parent_id must be a string or null"
        if record["dur_s"] < 0:
            return "span dur_s must be non-negative"
    elif kind == "counter":
        if record["name"] not in KNOWN_COUNTERS:
            return f"unknown counter name {record['name']!r}"
        if record["value"] < 0:
            return "counter value must be non-negative (counters are monotonic)"
    elif kind == "gauge":
        if record["name"] not in KNOWN_GAUGES:
            return f"unknown gauge name {record['name']!r}"
    return None


def validate_trace(path: str | Path) -> Iterator[tuple[int, str]]:
    """Yield ``(line_number, error)`` for every invalid record in a file.

    An empty iteration means the trace is schema-valid.  Malformed JSON
    raises immediately (see :func:`~repro.telemetry.trace.iter_trace`).
    """
    for lineno, record in iter_trace(path):
        err = validate_record(record)
        if err is not None:
            yield lineno, err
