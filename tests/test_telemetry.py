"""Telemetry subsystem: spans, counters, sinks, schema, report, fan-in."""

from __future__ import annotations

import json
import os
import time

import pytest

from repro import telemetry
from repro.experiments.runner import ExperimentRunner, RowTask, RunPolicy
from repro.telemetry import (
    KNOWN_COUNTERS,
    KNOWN_SPANS,
    JsonlSink,
    MemorySink,
    iter_trace,
    run_trace_cli,
    summarize_trace,
    validate_record,
    validate_trace,
)


@pytest.fixture(autouse=True)
def _clean_telemetry():
    """Every test starts and ends with telemetry disabled."""
    telemetry.shutdown()
    yield
    telemetry.shutdown()


class TestDisabledDefault:
    def test_disabled_by_default(self):
        assert not telemetry.enabled()

    def test_span_is_noop_when_disabled(self):
        sp = telemetry.span("sat.solve", vars=3)
        assert sp is telemetry.NOOP_SPAN
        with sp as inner:
            assert inner.set(x=1) is inner  # chainable, no effect

    def test_counters_ignored_when_disabled(self):
        telemetry.counter_add("attack.dips", 5)
        assert telemetry.counter_totals() == {}

    def test_timed_span_measures_even_when_disabled(self):
        with telemetry.timed_span("bench.measure") as sp:
            time.sleep(0.01)
        assert sp.duration_s >= 0.005


class TestSpans:
    def test_span_record_shape(self):
        sink = MemorySink()
        telemetry.configure(sink)
        with telemetry.span("sat.solve", vars=7) as sp:
            sp.set(sat=True)
        (rec,) = sink.of_kind("span")
        assert rec["name"] == "sat.solve"
        assert rec["pid"] == os.getpid()
        assert rec["parent_id"] is None
        assert rec["attrs"] == {"vars": 7, "sat": True}
        assert rec["dur_s"] >= 0.0
        assert validate_record(rec) is None

    def test_span_nesting_links_parent_ids(self):
        sink = MemorySink()
        telemetry.configure(sink)
        with telemetry.span("attack.run") as outer:
            with telemetry.span("attack.sat.iteration", dip=0) as mid:
                with telemetry.span("sat.solve"):
                    pass
        spans = {r["name"]: r for r in sink.of_kind("span")}
        assert spans["sat.solve"]["parent_id"] == mid.span_id
        assert spans["attack.sat.iteration"]["parent_id"] == outer.span_id
        assert spans["attack.run"]["parent_id"] is None

    def test_current_span_tracks_stack(self):
        telemetry.configure(MemorySink())
        assert telemetry.current_span() is None
        with telemetry.span("attack.run") as sp:
            assert telemetry.current_span() is sp
        assert telemetry.current_span() is None

    def test_exception_annotates_and_propagates(self):
        sink = MemorySink()
        telemetry.configure(sink)
        with pytest.raises(RuntimeError):
            with telemetry.span("attack.run"):
                raise RuntimeError("boom")
        (rec,) = sink.of_kind("span")
        assert rec["attrs"]["error"] == "RuntimeError"


class TestCounters:
    def test_totals_accumulate_and_flush(self):
        sink = MemorySink()
        telemetry.configure(sink)
        telemetry.counter_add("attack.dips")
        telemetry.counter_add("attack.dips", 4)
        telemetry.gauge_set("sat.clauses", 12.0)
        assert telemetry.counter_totals() == {"attack.dips": 5}
        telemetry.flush_counters()
        (counter,) = sink.of_kind("counter")
        assert counter["name"] == "attack.dips" and counter["value"] == 5
        (gauge,) = sink.of_kind("gauge")
        assert gauge["name"] == "sat.clauses" and gauge["value"] == 12.0
        # flushed means cleared
        assert telemetry.counter_totals() == {}

    def test_shutdown_flushes_and_disables(self):
        sink = MemorySink()
        telemetry.configure(sink)
        telemetry.counter_add("attack.dips")
        telemetry.shutdown()
        assert not telemetry.enabled()
        assert sink.of_kind("counter")


class TestJsonlSink:
    def test_roundtrip_and_idempotent_configure(self, tmp_path):
        path = tmp_path / "t.jsonl"
        first = telemetry.configure(path=path)
        again = telemetry.configure(path=path)
        assert first is again  # same-path reconfigure is a no-op
        with telemetry.span("experiment.row", experiment="e", key="r0"):
            pass
        telemetry.shutdown()
        records = [r for _, r in iter_trace(path)]
        assert [r["kind"] for r in records] == ["span"]
        assert records[0]["attrs"]["key"] == "r0"

    def test_iter_trace_rejects_malformed_lines(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind":"span"}\nnot json\n')
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            list(iter_trace(path))

    def test_failed_write_degrades_sink_not_the_run(self, tmp_path, monkeypatch):
        """Disk-full mid-campaign drops telemetry with one warning; the
        records already on disk stay intact and later writes are no-ops."""
        import errno

        path = tmp_path / "full.jsonl"
        sink = JsonlSink(path)
        sink.write({"kind": "meta", "n": 1})

        def fail_write(fd, data):
            raise OSError(errno.ENOSPC, "no space left on device")

        with monkeypatch.context() as m:
            m.setattr("os.write", fail_write)
            with pytest.warns(RuntimeWarning, match="degraded after a failed"):
                sink.write({"kind": "meta", "n": 2})
        assert sink.degraded
        sink.write({"kind": "meta", "n": 3})  # dropped silently
        sink.close()
        assert len(path.read_text().splitlines()) == 1


class TestSchema:
    def _span(self, **over):
        rec = {
            "kind": "span",
            "name": "sat.solve",
            "ts": 1.0,
            "dur_s": 0.5,
            "pid": 1,
            "span_id": "1-1",
            "parent_id": None,
            "attrs": {},
        }
        rec.update(over)
        return rec

    def test_known_catalog_is_closed(self):
        assert "sat.solve" in KNOWN_SPANS
        assert "attack.dips" in KNOWN_COUNTERS

    def test_valid_span_passes(self):
        assert validate_record(self._span()) is None

    def test_unknown_span_name_rejected(self):
        err = validate_record(self._span(name="sat.mystery"))
        assert err is not None and "sat.mystery" in err

    def test_missing_field_rejected(self):
        rec = self._span()
        del rec["dur_s"]
        assert validate_record(rec) is not None

    def test_negative_duration_rejected(self):
        assert validate_record(self._span(dur_s=-1.0)) is not None

    def test_unknown_kind_rejected(self):
        assert validate_record({"kind": "wat"}) is not None

    def test_unknown_counter_rejected(self):
        rec = {
            "kind": "counter",
            "name": "not.a.counter",
            "value": 1,
            "ts": 1.0,
            "pid": 1,
        }
        assert validate_record(rec) is not None

    def test_validate_trace_reports_line_numbers(self, tmp_path):
        path = tmp_path / "t.jsonl"
        good = json.dumps(self._span())
        bad = json.dumps(self._span(name="nope"))
        path.write_text(f"{good}\n{bad}\n")
        violations = list(validate_trace(path))
        assert len(violations) == 1 and violations[0][0] == 2


def _slow_row(tag: str) -> dict:
    """Module-level so it pickles into pool workers."""
    time.sleep(0.05)
    return {"tag": tag}


class TestRunnerFanIn:
    def test_parallel_workers_merge_into_one_valid_trace(self, tmp_path):
        trace = tmp_path / "campaign.jsonl"
        policy = RunPolicy(jobs=4, trace_path=trace)
        runner = ExperimentRunner("merge_test", policy)
        tasks = [
            RowTask(key=f"row{i}", compute=_slow_row, args=(f"row{i}",))
            for i in range(8)
        ]
        outcomes = runner.run_rows(tasks)
        telemetry.shutdown()
        assert [o.value["tag"] for o in outcomes] == [
            f"row{i}" for i in range(8)
        ]

        records = [r for _, r in iter_trace(trace)]
        assert not list(validate_trace(trace))
        rows = [
            r
            for r in records
            if r["kind"] == "span" and r["name"] == "experiment.row"
        ]
        assert {r["attrs"]["key"] for r in rows} == {
            f"row{i}" for i in range(8)
        }
        assert all(r["attrs"]["status"] == "ok" for r in rows)
        # the rows really came from several worker processes
        assert len({r["pid"] for r in rows}) >= 2
        counted = sum(
            r["value"]
            for r in records
            if r["kind"] == "counter" and r["name"] == "experiment.rows"
        )
        assert counted == 8

    def test_sequential_runner_traces_rows_too(self, tmp_path):
        trace = tmp_path / "seq.jsonl"
        runner = ExperimentRunner(
            "seq_test", RunPolicy(trace_path=trace)
        )
        runner.run_row("only", _slow_row, args=("only",))
        telemetry.shutdown()
        rows = [
            r
            for _, r in iter_trace(trace)
            if r["kind"] == "span" and r["name"] == "experiment.row"
        ]
        assert len(rows) == 1 and rows[0]["attrs"]["experiment"] == "seq_test"


class TestReportCli:
    def _write_trace(self, path):
        telemetry.configure(path=path)
        with telemetry.span("experiment.row", experiment="e", key="k"):
            with telemetry.span("sat.solve"):
                pass
        telemetry.counter_add("sat.conflicts", 3)
        telemetry.shutdown()

    def test_summarize(self, tmp_path):
        path = tmp_path / "t.jsonl"
        self._write_trace(path)
        summary = summarize_trace(path)
        assert summary.spans["sat.solve"].count == 1
        assert summary.counters["sat.conflicts"] == 3

    def test_cli_report_ok(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        self._write_trace(path)
        assert run_trace_cli("report", str(path)) == 0
        out = capsys.readouterr().out
        assert "sat.solve" in out and "sat.conflicts" in out

    def test_cli_validate_fails_on_unknown_span(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        path.write_text(
            json.dumps(
                {
                    "kind": "span",
                    "name": "made.up",
                    "ts": 1.0,
                    "dur_s": 0.1,
                    "pid": 1,
                    "span_id": "1-1",
                    "parent_id": None,
                    "attrs": {},
                }
            )
            + "\n"
        )
        assert run_trace_cli("validate", str(path)) == 1
        assert "made.up" in capsys.readouterr().out

    def test_cli_missing_file(self, tmp_path):
        assert run_trace_cli("report", str(tmp_path / "none.jsonl")) == 2

    @staticmethod
    def _span(name, span_id, parent_id, dur_s, pid=1):
        return {
            "kind": "span", "name": name, "ts": 1.0, "dur_s": dur_s,
            "pid": pid, "span_id": span_id, "parent_id": parent_id,
            "attrs": {},
        }

    def test_self_time_subtracts_direct_children_only(self, tmp_path, capsys):
        # pid 1: row 10 s -> insert 6 s -> rank 4 s -> compile 1 s, and
        # row -> a second rank 2 s; pid 2: a rank 3 s whose parent was
        # never written (its worker died); pid 3: a forked worker's row
        # 8 s that names pid 1's row as its parent but ran beside it.
        # Children come first, as the sink writes them on exit.
        records = [
            self._span("optape.compile", "1-4", "1-3", 1.0),
            self._span("locking.rank", "1-3", "1-2", 4.0),
            self._span("locking.insert", "1-2", "1-1", 6.0),
            self._span("locking.rank", "1-5", "1-1", 2.0),
            self._span("experiment.row", "3-1", "1-1", 8.0, pid=3),
            self._span("experiment.row", "1-1", None, 10.0),
            self._span("locking.rank", "2-1", "2-9", 3.0, pid=2),
        ]
        path = tmp_path / "nested.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        spans = summarize_trace(path).spans
        got = {name: (st.total_s, st.self_s) for name, st in spans.items()}
        assert got == {
            "experiment.row": (18.0, 10.0),  # (10 - insert 6 - rank 2) + 8
            "locking.insert": (6.0, 2.0),    # 6 - rank 4 (not compile)
            "locking.rank": (9.0, 8.0),      # (4 - 1) + 2 + 3
            "optape.compile": (1.0, 1.0),
        }
        # every second of each process is charged to exactly one span
        assert sum(self_s for _, self_s in got.values()) == 10.0 + 3.0 + 8.0
        assert run_trace_cli("report", str(path)) == 0
        out = capsys.readouterr().out
        header = next(line for line in out.splitlines() if line.startswith("span"))
        assert header.split() == ["span", "count", "total", "self", "mean", "max"]
        row = next(line for line in out.splitlines() if line.startswith("locking.rank"))
        assert row.split()[1:4] == ["3", "9000.0ms", "8000.0ms"]
