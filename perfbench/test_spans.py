"""Self-time arithmetic of the benchmark's span recorder and its
rescaling of times to the reference host speed.

Run from the repository root: ``python3 -m pytest perfbench/test_spans.py``
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Span, Tracer, self_times  # noqa: E402


def test_nested_spans_with_reentered_layer():
    # harness 0..10 -> lock_weighted 1..6 -> rank 2..5; a second
    # lock_weighted 6..9 -> rank 7..8 -> compile 7.5..7.75; the runner
    # re-entered under itself (run_rows 0..10 is the root here)
    spans = [
        Span("experiments.runner", 0.0, 10.0),
        Span("experiments.runner", 0.5, 9.5, parent=0),
        Span("locking.insert", 1.0, 6.0, parent=1),
        Span("locking.rank", 2.0, 5.0, parent=2),
        Span("locking.insert", 6.0, 9.0, parent=1),
        Span("locking.rank", 7.0, 8.0, parent=4),
        Span("sim.compile", 7.5, 7.75, parent=5),
    ]
    got = self_times(spans)
    assert got["experiments.runner"] == pytest.approx(1.0 + 1.0)
    assert got["locking.insert"] == pytest.approx(2.0 + 2.0)
    assert got["locking.rank"] == pytest.approx(3.0 + 0.75)
    assert got["sim.compile"] == pytest.approx(0.25)
    assert sum(got.values()) == pytest.approx(10.0)


def test_tracer_wrap_records_parents_counts_and_raising_calls():
    tracer = Tracer()

    def rank(n):
        return list(range(n))

    traced_rank = tracer.wrap(
        "locking.rank", rank, lambda t, result, n: t.add("nets", len(result))
    )

    def insert(n):
        if n < 0:
            raise ValueError(n)
        return traced_rank(n)

    traced_insert = tracer.wrap("locking.insert", insert)
    root = tracer.begin("bench.harness")
    traced_insert(3)
    with pytest.raises(ValueError):
        traced_insert(-1)
    tracer.end(root)

    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [
        ("bench.harness", None),
        ("locking.insert", 0),
        ("locking.rank", 1),
        ("locking.insert", 0),
    ]
    assert tracer.counters["locking.insert.calls"] == 2
    assert tracer.counters["locking.rank.calls"] == 1
    assert tracer.counters["nets"] == 3
    total = sum(self_times(tracer.spans).values())
    assert total == pytest.approx(tracer.spans[0].end - tracer.spans[0].start)


def test_normalise_divides_times_by_the_probe_slowdown():
    from hostspeed import REF_PROBE_S, mean_duration
    from run import normalise

    # one stalled kernel (over three times the median) is left out
    assert mean_duration([1.0, 2.0, 3.0, 10.0]) == pytest.approx(2.0)

    ref = REF_PROBE_S
    sample = {
        "wall_s": 6.0,
        "cpu_s": 5.0,
        "setup_s": 0.5,
        "probe_setup": [ref, ref],
        "probe_call": [2 * ref, 2 * ref, 1 * ref, 3 * ref],
        "trace": {"self_s": {"locking.rank": 4.0}, "counters": {}},
    }
    normalise([sample])
    assert sample["slowdown"] == pytest.approx(2.0)
    assert sample["raw_wall_s"] == 6.0
    assert sample["wall_s"] == pytest.approx(3.0)
    assert sample["cpu_s"] == pytest.approx(2.5)
    assert sample["setup_s"] == pytest.approx(0.5)
    assert sample["trace"]["self_s"]["locking.rank"] == pytest.approx(2.0)
