"""Tests for the supervised worker fleet: crash/hang containment,
poison-row quarantine, deterministic re-dispatch, graceful drain, and
the ``REPRO_CHAOS`` process-level chaos plans that drive them.

Row callables live at module level so they reach workers regardless of
start method; chaos is injected the way production does it — through the
environment — so worker bootstrap re-arming is exercised too.
"""

import multiprocessing
import time

import pytest

from repro.experiments import ExperimentRunner, RowTask, RunPolicy
from repro.runtime import (
    CampaignInterrupted,
    PoolTask,
    RunOutcome,
    RunStatus,
    SupervisedPool,
    faultinject,
)
from repro.runtime.faultinject import CHAOS_ENV, ChaosSpecError

pytestmark = pytest.mark.robust


@pytest.fixture(autouse=True)
def clean_chaos(monkeypatch):
    """Chaos plans must never leak between tests (or into workers of a
    later test via fork-inherited registry state)."""
    monkeypatch.delenv(CHAOS_ENV, raising=False)
    faultinject.clear()
    yield
    faultinject.clear()


def _ok_row(row_arg, key, payload, attempt):
    return RunOutcome(
        RunStatus.OK, value={"key": key, "payload": payload, "attempt": attempt}
    )


def _sleep_row(row_arg, key, payload, attempt):
    time.sleep(payload)
    return RunOutcome(RunStatus.OK, value=key)


def _square(x, budget=None):
    return {"value": x * x}


def _tasks(n=4):
    return [PoolTask(index=i, key=f"r{i}", payload=i) for i in range(n)]


def _no_supervised_children():
    return not any(
        p.name.startswith("repro-supervised")
        for p in multiprocessing.active_children()
    )


class TestPoolBasics:
    def test_runs_every_task(self):
        pool = SupervisedPool(jobs=2, row_fn=_ok_row)
        results = pool.run(_tasks(5))
        assert sorted(results) == list(range(5))
        assert all(results[i].value["key"] == f"r{i}" for i in range(5))
        assert all(results[i].value["attempt"] == 0 for i in range(5))
        assert pool.crashes == 0 and pool.hangs == 0
        assert pool.quarantined == {} and pool.restarts == 0
        assert _no_supervised_children()

    def test_on_result_fires_once_per_row(self):
        seen = []
        pool = SupervisedPool(jobs=2, row_fn=_ok_row)
        pool.run(_tasks(4), on_result=lambda i, o: seen.append(i))
        assert sorted(seen) == [0, 1, 2, 3]

    def test_empty_task_list(self):
        assert SupervisedPool(jobs=2, row_fn=_ok_row).run([]) == {}

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            SupervisedPool(jobs=0, row_fn=_ok_row)


class TestCrashContainment:
    def test_killed_worker_retried_to_success(self, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, "kill:r1@0")
        pool = SupervisedPool(jobs=2, row_fn=_ok_row, worker_retries=1)
        results = pool.run(_tasks(3))
        assert all(results[i].ok for i in range(3))
        # the re-dispatched row ran as process-level attempt 1
        assert results[1].value["attempt"] == 1
        # restarts is timing-dependent (the surviving worker may run the
        # requeued row before a replacement is needed), so it is not asserted
        assert pool.crashes == 1 and pool.requeues == 1
        assert pool.quarantined == {}
        assert _no_supervised_children()

    def test_poison_row_quarantined_with_signal_history(self, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, "kill:r0@*")
        pool = SupervisedPool(jobs=2, row_fn=_ok_row, worker_retries=1)
        results = pool.run(_tasks(3))
        bad = results[0]
        assert bad.status is RunStatus.ERROR
        assert bad.error_type == "RowQuarantined"
        assert "quarantined after 2 process-level attempts" in bad.error
        history = bad.diagnostics["quarantine"]["attempts"]
        assert len(history) == 2 and bad.attempts == 2
        assert all(f["kind"] == "crash" and f["signal"] == 9 for f in history)
        assert {f["worker"] for f in history}  # worker names recorded
        # the fleet and the other rows survived the poison row
        assert results[1].ok and results[2].ok
        assert pool.quarantined.keys() == {"r0"}
        assert _no_supervised_children()

    def test_exit_chaos_records_exit_code(self, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, "exit:r0@*")
        pool = SupervisedPool(jobs=1, row_fn=_ok_row, worker_retries=0)
        results = pool.run(_tasks(1))
        (failure,) = results[0].diagnostics["quarantine"]["attempts"]
        assert failure["exitcode"] == 42 and failure["signal"] is None
        assert _no_supervised_children()

    def test_backoff_gates_the_redispatch(self, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, "kill:r0@0")
        pool = SupervisedPool(
            jobs=1, row_fn=_ok_row, worker_retries=1, backoff_s=0.4
        )
        start = time.monotonic()
        results = pool.run(_tasks(1))
        assert results[0].ok
        # run_with_retry's schedule: attempt 1 waits backoff_s * 2**0
        assert time.monotonic() - start >= 0.4


class TestHangContainment:
    def test_stalled_row_caught_by_watchdog(self, monkeypatch):
        # stall = live heartbeat, row never returns: only the per-row
        # deadline watchdog can catch it
        monkeypatch.setenv(CHAOS_ENV, "stall:r0@0")
        pool = SupervisedPool(
            jobs=2,
            row_fn=_ok_row,
            row_allowance_s=0.2,
            hang_grace_s=0.1,
            heartbeat_interval_s=0.05,
            worker_retries=1,
        )
        results = pool.run(_tasks(2))
        assert results[0].ok and results[0].value["attempt"] == 1
        assert results[1].ok
        assert pool.hangs == 1 and pool.quarantined == {}
        assert _no_supervised_children()

    def test_dead_heartbeat_caught_without_row_deadline(self, monkeypatch):
        # hang = heartbeat thread dead too; no row deadline is set, so
        # only the stale-heartbeat monitor can see this worker
        monkeypatch.setenv(CHAOS_ENV, "hang:r0@*")
        pool = SupervisedPool(
            jobs=1,
            row_fn=_ok_row,
            worker_retries=0,
            heartbeat_interval_s=0.05,
            heartbeat_stale_s=0.3,
        )
        results = pool.run(_tasks(1))
        (failure,) = results[0].diagnostics["quarantine"]["attempts"]
        assert failure["kind"] == "stalled-heartbeat"
        assert pool.hangs == 1
        assert _no_supervised_children()


class TestGracefulDrain:
    def test_request_stop_raises_resumable_interrupt(self):
        tasks = [PoolTask(index=i, key=f"r{i}", payload=0.4) for i in range(3)]
        pool = SupervisedPool(jobs=1, row_fn=_sleep_row, experiment="drain")

        def stop_after_first(index, outcome):
            pool.request_stop()

        with pytest.raises(CampaignInterrupted) as exc_info:
            pool.run(tasks, on_result=stop_after_first)
        err = exc_info.value
        assert err.total == 3 and 1 <= err.done < 3
        assert err.experiment == "drain"
        assert "resumable at row" in str(err) and "--resume" in str(err)
        assert _no_supervised_children()


class TestQuarantineResume:
    """Quarantine verdicts survive a checkpoint/resume round-trip."""

    def _tasks(self):
        return [
            RowTask(key=k, compute=_square, args=(i,))
            for i, k in enumerate(["good0", "bad", "good1"])
        ]

    def test_quarantine_checkpointed_then_reused(self, tmp_path, monkeypatch):
        policy = RunPolicy(
            checkpoint_dir=tmp_path, resume=True, jobs=2, worker_retries=0
        )
        monkeypatch.setenv(CHAOS_ENV, "kill:bad@*")
        first = ExperimentRunner("q", policy, fingerprint={"v": 1})
        outcomes = first.run_rows(self._tasks())
        assert outcomes[1].error_type == "RowQuarantined"
        assert outcomes[0].ok and outcomes[2].ok

        # chaos off: a resumed campaign must still *skip* the poison row
        monkeypatch.delenv(CHAOS_ENV)
        faultinject.clear()
        second = ExperimentRunner("q", policy, fingerprint={"v": 1})
        resumed = second.run_rows(self._tasks())
        assert second.rows_reused == 3 and second.rows_computed == 0
        assert resumed[1].status is RunStatus.ERROR
        assert resumed[1].error_type == "RowQuarantined"
        assert resumed[1].diagnostics["quarantined"]
        history = resumed[1].diagnostics["quarantine"]["attempts"]
        assert history and history[0]["signal"] == 9

        # ... unless the operator explicitly asks for another try
        retry_policy = RunPolicy(
            checkpoint_dir=tmp_path, resume=True, jobs=2,
            worker_retries=0, retry_quarantined=True,
        )
        third = ExperimentRunner("q", retry_policy, fingerprint={"v": 1})
        retried = third.run_rows(self._tasks())
        assert third.rows_reused == 2 and third.rows_computed == 1
        assert retried[1].ok and retried[1].value == {"value": 1}


class TestChaosSpec:
    def test_row_entries_match_key_and_attempt(self):
        faultinject.install_chaos("kill:r1@*;hang:r2;stall:*@1")
        assert faultinject.chaos_row_action("r1", 0) == "kill"
        assert faultinject.chaos_row_action("r1", 7) == "kill"
        assert faultinject.chaos_row_action("r2", 0) == "hang"
        assert faultinject.chaos_row_action("r2", 2) is None  # @0 default
        assert faultinject.chaos_row_action("anything", 1) == "stall"
        assert faultinject.chaos_row_action("anything", 0) is None

    def test_site_entries_install_plans(self):
        n = faultinject.install_chaos("enospc:cache.put@2;raise:checkpoint.save")
        assert n == 2 and faultinject.enabled
        faultinject.fire("cache.put")  # hit 1: below threshold
        with pytest.raises(OSError, match="no space left"):
            faultinject.fire("cache.put")
        with pytest.raises(faultinject.InjectedFault):
            faultinject.fire("checkpoint.save")

    def test_malformed_specs_rejected(self):
        with pytest.raises(ChaosSpecError, match="expected action:target"):
            faultinject.install_chaos("bogus")
        with pytest.raises(ChaosSpecError, match="unknown action"):
            faultinject.install_chaos("frob:r1")

    def test_install_from_env_is_idempotent(self, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, "kill:r0")
        assert faultinject.install_from_env() == 1
        assert faultinject.install_from_env() == 0  # second parse is a no-op
        faultinject.clear()  # re-arms eligibility
        assert faultinject.install_from_env() == 1
