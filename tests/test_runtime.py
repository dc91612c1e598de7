"""Tests for the resource-governed runtime: budgets, guarded outcomes,
and budget threading through the solver, PODEM and the fault simulator."""

import pytest

from repro.attacks import exhausted_result
from repro.attacks.oracle import OracleBudgetExceeded
from repro.atpg import (
    PODEM,
    Fault,
    FaultSimulator,
    TestOutcome,
    full_fault_list,
    sat_generate,
)
from repro.bench import c17
from repro.runtime import (
    Budget,
    BudgetExhausted,
    DeadlineExpired,
    ResourceExhausted,
    RunStatus,
    run_guarded,
    run_with_retry,
)
from repro.sat import CNF, Solver
from repro.sim import random_words

pytestmark = pytest.mark.robust


def pigeonhole(n_holes: int) -> CNF:
    """PHP(n+1, n): classically hard UNSAT — a reliable conflict source."""
    cnf = CNF()
    p = [[cnf.new_var() for _ in range(n_holes)] for _ in range(n_holes + 1)]
    for row in p:
        cnf.add_clause(row)
    for h in range(n_holes):
        for i in range(n_holes + 1):
            for j in range(i + 1, n_holes + 1):
                cnf.add_clause([-p[i][h], -p[j][h]])
    return cnf


class TestBudget:
    def test_conflict_cap_raises(self):
        b = Budget(max_conflicts=3)
        b.charge_conflict()
        b.charge_conflict()
        with pytest.raises(BudgetExhausted):
            b.charge_conflict()
        assert b.conflicts == 3

    def test_backtrack_and_pattern_caps(self):
        b = Budget(max_backtracks=2, max_patterns=100)
        b.charge_backtrack()
        with pytest.raises(BudgetExhausted):
            b.charge_backtrack()
        b2 = Budget(max_patterns=100)
        b2.charge_patterns(64)
        with pytest.raises(BudgetExhausted):
            b2.charge_patterns(64)
        assert b2.patterns == 128

    def test_deadline_expiry(self):
        b = Budget(wall_s=1e-9)
        with pytest.raises(DeadlineExpired):
            b.check_deadline()
        assert b.expired()

    def test_no_limits_never_raises(self):
        b = Budget()
        for _ in range(100):
            b.charge_conflict()
            b.charge_backtrack()
            b.charge_patterns(10_000)
        b.check_deadline()
        assert not b.expired() and not b.exhausted()

    def test_force_expire(self):
        b = Budget(wall_s=3600)
        b.check_deadline()
        b.force_expire()
        assert b.expired()
        with pytest.raises(DeadlineExpired):
            b.check_deadline()

    def test_exhausted_probes_caps_not_just_deadline(self):
        b = Budget(max_conflicts=1)
        assert not b.exhausted()
        with pytest.raises(BudgetExhausted):
            b.charge_conflict()
        assert b.exhausted()
        assert not b.expired()  # deadline-only probe stays false

    def test_restart_rewinds_everything(self):
        b = Budget(wall_s=3600, max_conflicts=2)
        with pytest.raises(BudgetExhausted):
            for _ in range(5):
                b.charge_conflict()
        b.force_expire()
        b.restart()
        assert b.conflicts == 0 and not b.expired() and not b.exhausted()
        b.charge_conflict()  # one conflict fits again

    def test_spend_snapshot(self):
        b = Budget()
        b.charge_conflict(4)
        b.charge_patterns(64)
        s = b.spend()
        assert s["conflicts"] == 4 and s["patterns"] == 64
        assert s["elapsed_s"] >= 0

    def test_exception_taxonomy(self):
        assert issubclass(BudgetExhausted, ResourceExhausted)
        assert issubclass(DeadlineExpired, ResourceExhausted)
        assert BudgetExhausted.kind == "budget"
        assert DeadlineExpired.kind == "timeout"
        assert issubclass(OracleBudgetExceeded, BudgetExhausted)


class TestRunGuarded:
    def test_ok(self):
        out = run_guarded(lambda x: x + 1, 41)
        assert out.ok and out.status is RunStatus.OK and out.value == 42
        assert out.elapsed_s >= 0

    def test_budget_classified(self):
        def boom():
            raise BudgetExhausted("caps out")

        out = run_guarded(boom)
        assert out.status is RunStatus.BUDGET and not out.ok
        assert out.value is None and "caps out" in out.error

    def test_timeout_classified(self):
        def slow():
            Budget(wall_s=1e-9).check_deadline()

        out = run_guarded(slow)
        assert out.status is RunStatus.TIMEOUT
        assert out.error_type == "DeadlineExpired"

    def test_oracle_budget_maps_to_budget(self):
        def q():
            raise OracleBudgetExceeded("oracle budget of 5 queries exceeded")

        assert run_guarded(q).status is RunStatus.BUDGET

    def test_error_captures_traceback(self):
        def broken():
            raise ValueError("bad row")

        out = run_guarded(broken)
        assert out.status is RunStatus.ERROR
        assert out.error_type == "ValueError"
        assert "bad row" in out.traceback

    def test_keyboard_interrupt_propagates(self):
        def die():
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_guarded(die)

    def test_budget_spend_in_diagnostics(self):
        b = Budget()

        def work():
            b.charge_conflict(7)

        out = run_guarded(work, budget=b)
        assert out.diagnostics["budget"]["conflicts"] == 7


class TestRunWithRetry:
    def test_error_retried_until_success(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise OSError("transient")
            return "done"

        slept = []
        out = run_with_retry(
            flaky, retries=3, backoff_s=0.5, sleep=slept.append
        )
        assert out.ok and out.value == "done" and out.attempts == 3
        assert slept == [0.5, 1.0]  # deterministic exponential backoff
        assert len(out.diagnostics["retry_history"]) == 2

    def test_retry_history_records_every_failed_attempt(self):
        def broken(budget=None):
            raise ValueError("attempt failed")

        slept = []
        out = run_with_retry(broken, retries=2, backoff_s=0.25,
                             sleep=slept.append)
        assert out.status is RunStatus.ERROR and out.attempts == 3
        history = out.diagnostics["retry_history"]
        assert [h["attempt"] for h in history] == [1, 2]
        assert all(h["status"] == "error" for h in history)
        assert all("attempt failed" in h["error"] for h in history)
        # the injected sleep pins the schedule: backoff_s * 2**attempt
        assert slept == [0.25, 0.5]

    def test_budget_outcomes_not_retried(self):
        calls = []

        def capped():
            calls.append(1)
            raise BudgetExhausted("deliberate")

        out = run_with_retry(capped, retries=5, sleep=lambda s: None)
        assert out.status is RunStatus.BUDGET and len(calls) == 1

    def test_fresh_budget_forwarded_each_attempt(self):
        seen = []

        def work(budget=None):
            seen.append(budget)
            if len(seen) < 2:
                raise OSError("transient")
            budget.charge_conflict()
            return "ok"

        out = run_with_retry(
            work,
            budget_factory=lambda: Budget(max_conflicts=10),
            retries=2,
            sleep=lambda s: None,
        )
        assert out.ok
        assert len(seen) == 2 and seen[0] is not seen[1]


class TestSolverBudget:
    def test_shared_budget_bounds_sum_of_solves(self):
        budget = Budget(max_conflicts=30)
        with pytest.raises(BudgetExhausted):
            while True:  # PHP(6,5) alone needs far more than 30 conflicts
                Solver(pigeonhole(5)).solve(budget=budget)
        assert budget.conflicts == 30

    def test_solver_reusable_after_budget_abort(self):
        s = Solver(pigeonhole(5))
        with pytest.raises(BudgetExhausted):
            s.solve(budget=Budget(max_conflicts=5))
        res = s.solve()  # restored to level 0; full solve still works
        assert res.sat is False

    def test_legacy_conflict_budget_still_works(self):
        with pytest.raises(BudgetExhausted):
            Solver(pigeonhole(5)).solve(conflict_budget=5)

    def test_deadline_aborts_solve(self):
        b = Budget(wall_s=3600)
        b.force_expire()
        with pytest.raises(DeadlineExpired):
            Solver(pigeonhole(5)).solve(budget=b)

    def test_easy_solve_fits_budget(self):
        cnf = CNF()
        v = cnf.new_vars(3)
        cnf.add_clause([v[0], v[1]])
        cnf.add_clause([-v[0], v[2]])
        res = Solver(cnf).solve(budget=Budget(max_conflicts=1000))
        assert res.sat


class TestATPGBudget:
    def test_podem_charges_shared_backtracks(self):
        # y = a OR (a AND b): proving 't sa*' faults redundant forces
        # PODEM to backtrack through its whole decision space
        from repro.netlist import GateType, Netlist

        nl = Netlist("red")
        nl.add_input("a")
        nl.add_input("b")
        nl.add_gate("t", GateType.AND, ["a", "b"])
        nl.add_gate("y", GateType.OR, ["a", "t"])
        nl.set_outputs(["y"])
        budget = Budget(max_backtracks=1)
        podem = PODEM(nl, max_backtracks=50)
        hit = False
        for fault in full_fault_list(nl):
            try:
                podem.generate(fault, budget=budget)
            except BudgetExhausted:
                hit = True
                break
        assert hit, "no fault ever backtracked: cap never exercised"

    def test_podem_local_limit_still_aborts_not_raises(self):
        nl = c17()
        podem = PODEM(nl, max_backtracks=0)
        results = [podem.generate(f) for f in full_fault_list(nl)]
        assert all(
            r.outcome in (TestOutcome.DETECTED, TestOutcome.ABORTED,
                          TestOutcome.REDUNDANT)
            for r in results
        )

    def test_faultsim_charges_patterns(self):
        nl = c17()
        faults = full_fault_list(nl)
        words = {n: w for n, w in zip(nl.inputs, random_words(len(nl.inputs), 64))}
        budget = Budget(max_patterns=3 * 64)
        sim = FaultSimulator(nl)
        with pytest.raises(BudgetExhausted):
            sim.run(faults, words, 64, budget=budget)
        assert budget.patterns >= 3 * 64

    def test_sat_generate_local_abort_vs_shared_budget(self, parity_miter):
        nl = parity_miter
        fault = Fault("y", None, 1)  # redundant, and proving it takes search
        # local per-call cap: swallowed into ABORTED
        res = sat_generate(nl, fault, conflict_budget=1)
        assert res.outcome is TestOutcome.ABORTED
        # shared budget violation: propagates to the caller
        b = Budget(wall_s=3600)
        b.force_expire()
        with pytest.raises(DeadlineExpired):
            sat_generate(nl, fault, budget=b)


class TestAttackResultStatus:
    def test_default_status_ok(self):
        from repro.attacks.result import AttackResult

        r = AttackResult(
            attack="x", recovered_key={}, completed=True,
            iterations=1, oracle_queries=1,
        )
        assert r.status == "ok"

    def test_exhausted_result_maps_kind(self):
        r = exhausted_result("sat", BudgetExhausted("caps"), iterations=9)
        assert r.status == "budget" and not r.completed
        assert r.iterations == 9 and r.recovered_key is None
        t = exhausted_result("sat", DeadlineExpired("late"))
        assert t.status == "timeout"
