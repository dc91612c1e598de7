"""Tests for process-pool row parallelism in :class:`ExperimentRunner`.

Compute callables live at module level so they pickle into pool workers;
everything stateful (checkpoints, resume cache, preflights) must stay in
the parent — these tests pin that contract.
"""

from repro import cache as result_cache
from repro.experiments import ExperimentRunner, RowTask, RunPolicy
from repro.lint import lint_netlist
from repro.netlist import GateType, Netlist
from repro.runtime import RunStatus


def _square(x, budget=None):
    return {"value": x * x}


def _fail_odd(x, budget=None):
    if x % 2:
        raise RuntimeError(f"odd input {x}")
    return {"value": x}


def _charge_patterns(n, budget=None):
    if budget is not None:
        budget.charge_patterns(n)
    return {"value": n}


def _good_preflight():
    nl = Netlist("ok")
    nl.add_input("a")
    nl.add_gate("y", GateType.BUF, ["a"])
    nl.set_outputs(["y"])
    return lint_netlist(nl)


def _bad_preflight():
    nl = Netlist("bad")
    nl.add_input("a")
    # undriven fan-in: lint flags this as an error
    nl.add_gate("y", GateType.AND, ["a", "ghost"])
    nl.set_outputs(["y"])
    return lint_netlist(nl)


def _tasks(n=4):
    return [
        RowTask(key=f"row{i}", compute=_square, args=(i,)) for i in range(n)
    ]


class TestRunRows:
    def test_sequential_matches_run_row(self):
        runner = ExperimentRunner("seq")
        outcomes = runner.run_rows(_tasks(), jobs=1)
        assert [o.value for o in outcomes] == [{"value": i * i} for i in range(4)]
        assert runner.rows_computed == 4

    def test_parallel_matches_sequential(self):
        serial = ExperimentRunner("a").run_rows(_tasks(), jobs=1)
        parallel = ExperimentRunner("b").run_rows(_tasks(), jobs=2)
        assert [o.value for o in serial] == [o.value for o in parallel]
        assert [o.status for o in parallel] == [RunStatus.OK] * 4

    def test_jobs_defaults_to_policy(self):
        runner = ExperimentRunner("p", RunPolicy(jobs=2))
        outcomes = runner.run_rows(_tasks(3))
        assert [o.value for o in outcomes] == [{"value": i * i} for i in range(3)]

    def test_worker_errors_become_error_outcomes_in_order(self):
        tasks = [
            RowTask(key=f"r{i}", compute=_fail_odd, args=(i,)) for i in range(4)
        ]
        outcomes = ExperimentRunner("e").run_rows(tasks, jobs=2)
        assert [o.status for o in outcomes] == [
            RunStatus.OK,
            RunStatus.ERROR,
            RunStatus.OK,
            RunStatus.ERROR,
        ]
        assert "odd input 3" in outcomes[3].error

    def test_retries_happen_inside_worker(self):
        tasks = [RowTask(key="r", compute=_fail_odd, args=(1,))]
        runner = ExperimentRunner("retry", RunPolicy(retries=2, jobs=2))
        (outcome,) = runner.run_rows(tasks)
        assert outcome.status is RunStatus.ERROR
        assert outcome.attempts == 3

    def test_budget_enforced_in_worker(self):
        tasks = [RowTask(key="r", compute=_charge_patterns, args=(500,))]
        runner = ExperimentRunner(
            "budget", RunPolicy(max_patterns=100, jobs=2)
        )
        (outcome,) = runner.run_rows(tasks)
        assert outcome.status is RunStatus.BUDGET


class TestParallelCheckpointing:
    def test_checkpoints_written_and_resumed(self, tmp_path):
        policy = RunPolicy(checkpoint_dir=tmp_path, resume=True, jobs=2)
        first = ExperimentRunner("cp", policy, fingerprint={"v": 1})
        outcomes = first.run_rows(_tasks())
        assert first.rows_computed == 4 and first.rows_reused == 0

        second = ExperimentRunner("cp", policy, fingerprint={"v": 1})
        resumed = second.run_rows(_tasks())
        assert second.rows_reused == 4 and second.rows_computed == 0
        assert [o.value for o in resumed] == [o.value for o in outcomes]
        assert all(o.diagnostics.get("cached") for o in resumed)

    def test_fingerprint_mismatch_recomputes(self, tmp_path):
        policy = RunPolicy(checkpoint_dir=tmp_path, resume=True, jobs=2)
        ExperimentRunner("cp", policy, fingerprint={"v": 1}).run_rows(_tasks(2))
        changed = ExperimentRunner("cp", policy, fingerprint={"v": 2})
        changed.run_rows(_tasks(2))
        assert changed.rows_reused == 0 and changed.rows_computed == 2


class TestParallelPreflight:
    def test_failing_preflight_short_circuits_row(self):
        tasks = [
            RowTask(key="good", compute=_square, args=(2,), preflight=_good_preflight),
            RowTask(key="bad", compute=_square, args=(3,), preflight=_bad_preflight),
        ]
        outcomes = ExperimentRunner("pf").run_rows(tasks, jobs=2)
        assert outcomes[0].status is RunStatus.OK
        assert outcomes[1].status is RunStatus.ERROR
        assert "lint preflight failed" in outcomes[1].error


class TestUnifiedGate:
    """Sequential rows and the parallel pre-dispatch share one gate, so
    every kind of served row gets the same verdict whatever ``jobs``."""

    def _campaign(self, root, jobs):
        fp = {"v": 1}
        resumed = RowTask(key="resumed", compute=_square, args=(5,))
        cached = RowTask(key="cached", compute=_square, args=(6,))
        # seed a checkpoint for one row and a result-cache entry for
        # another (no checkpoint store there, so resume cannot serve it)
        ExperimentRunner(
            "gate", RunPolicy(checkpoint_dir=root / "ckpt"), fp
        ).run_rows([resumed])
        ExperimentRunner(
            "gate", RunPolicy(cache_dir=root / "cache"), fp
        ).run_rows([cached])
        policy = RunPolicy(
            checkpoint_dir=root / "ckpt",
            resume=True,
            cache_dir=root / "cache",
            jobs=jobs,
        )
        runner = ExperimentRunner("gate", policy, fp)
        outcomes = runner.run_rows(
            [
                resumed,
                cached,
                RowTask(key="bad", compute=_square, args=(7,),
                        preflight=_bad_preflight),
                RowTask(key="good", compute=_square, args=(8,),
                        preflight=_good_preflight),
                RowTask(key="plain", compute=_fail_odd, args=(9,)),
            ]
        )
        counts = (runner.rows_reused, runner.rows_cached, runner.rows_computed)
        return [(o.status, o.value) for o in outcomes], counts

    def test_jobs_1_and_2_agree_on_every_served_row(self, tmp_path):
        try:
            serial = self._campaign(tmp_path / "j1", jobs=1)
            parallel = self._campaign(tmp_path / "j2", jobs=2)
        finally:
            result_cache.disable()
        assert serial == parallel
        rows, counts = serial
        assert [status for status, _ in rows] == [
            RunStatus.OK,
            RunStatus.OK,
            RunStatus.ERROR,
            RunStatus.OK,
            RunStatus.ERROR,
        ]
        assert rows[0][1] == {"value": 25} and rows[1][1] == {"value": 36}
        assert counts == (1, 1, 3)

