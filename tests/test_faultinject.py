"""Tests for deterministic fault injection, and the regression suite
proving no attack lets a budget violation escape as a crash."""

import pytest

from repro.attacks import (
    AppSATConfig,
    DoubleDIPConfig,
    IdealOracle,
    SATAttackConfig,
    SequentialSATConfig,
    FunctionalOracle,
    appsat_attack,
    doubledip_attack,
    sat_attack,
    sequential_sat_attack,
)
from repro.atpg import PODEM, FaultSimulator, full_fault_list
from repro.bench import (
    GeneratorConfig,
    SequentialConfig,
    c17,
    generate_netlist,
    generate_sequential,
)
from repro.locking import WLLConfig, lock_random
from repro.orap import OraPConfig, protect
from repro.runtime import Budget, faultinject
from repro.runtime.faultinject import InjectedFault
from repro.runtime.outcome import RunStatus, run_guarded
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


@pytest.fixture(autouse=True)
def clean_registry():
    faultinject.clear()
    yield
    faultinject.clear()


class TestRegistry:
    def test_disabled_by_default(self):
        assert not faultinject.enabled
        faultinject.fire("sat.conflict")  # no plan: harmless
        assert faultinject.hits("sat.conflict") == 0

    def test_fires_on_nth_hit_only(self):
        faultinject.install("site", at=3)
        faultinject.fire("site")
        faultinject.fire("site")
        with pytest.raises(InjectedFault, match="hit 3"):
            faultinject.fire("site")
        faultinject.fire("site")  # one-shot: hit 4 passes
        assert faultinject.hits("site") == 4

    def test_repeat_fires_from_n_onwards(self):
        faultinject.install("site", at=2, repeat=True)
        faultinject.fire("site")
        for _ in range(3):
            with pytest.raises(InjectedFault):
                faultinject.fire("site")

    def test_custom_exception_and_instance(self):
        faultinject.install("a", exc=OSError)
        with pytest.raises(OSError):
            faultinject.fire("a")
        boom = ValueError("exact instance")
        faultinject.install("b", exc=boom)
        with pytest.raises(ValueError) as ei:
            faultinject.fire("b")
        assert ei.value is boom

    def test_action_runs_instead_of_raising(self):
        ran = []
        faultinject.install("site", at=2, action=lambda: ran.append(1))
        faultinject.fire("site")
        faultinject.fire("site")
        assert ran == [1]

    def test_context_manager_clears(self):
        with faultinject.injected("site", at=1):
            assert faultinject.enabled
        assert not faultinject.enabled

    def test_invalid_at_rejected(self):
        with pytest.raises(ValueError):
            faultinject.install("site", at=0)


class TestEngineSites:
    def test_nth_conflict_kills_solver(self):
        faultinject.install("sat.conflict", at=5)
        with pytest.raises(InjectedFault):
            Solver(pigeonhole(5)).solve()

    def test_mid_podem_deadline_expiry(self):
        from repro.netlist import GateType, Netlist

        nl = Netlist("red")
        nl.add_input("a")
        nl.add_input("b")
        nl.add_gate("t", GateType.AND, ["a", "b"])
        nl.add_gate("y", GateType.OR, ["a", "t"])
        nl.set_outputs(["y"])
        budget = Budget(wall_s=3600)
        faultinject.install(
            "podem.backtrack", at=1, action=budget.force_expire
        )
        podem = PODEM(nl, max_backtracks=50)

        def run_all():
            for f in full_fault_list(nl):
                podem.generate(f, budget=budget)

        out = run_guarded(run_all, budget=budget)
        assert out.status is RunStatus.TIMEOUT

    def test_faultsim_site(self):
        nl = c17()
        faults = full_fault_list(nl)
        words = {
            n: w for n, w in zip(nl.inputs, random_words(len(nl.inputs), 64))
        }
        faultinject.install("faultsim.fault", at=3)
        with pytest.raises(InjectedFault):
            FaultSimulator(nl).run(faults, words, 64)
        assert faultinject.hits("faultsim.fault") == 3


@pytest.fixture(scope="module")
def comb_locked():
    circuit = generate_netlist(
        GeneratorConfig(
            n_inputs=10, n_outputs=8, n_gates=70, depth=6, seed=11, name="fi"
        )
    )
    return lock_random(circuit, key_width=6, rng=3)


class TestNoAttackLeaksBudgetViolations:
    """Regression suite for the escape audit: under an expired shared
    budget every attack must return a status row, never raise."""

    def _expired(self):
        b = Budget(wall_s=3600)
        b.force_expire()
        return b

    def test_sat_attack(self, comb_locked):
        res = sat_attack(
            comb_locked.locked,
            comb_locked.key_inputs,
            IdealOracle(comb_locked.original),
            SATAttackConfig(budget=self._expired()),
        )
        assert res.status == "timeout" and not res.completed

    def test_appsat(self, comb_locked):
        res = appsat_attack(
            comb_locked.locked,
            comb_locked.key_inputs,
            IdealOracle(comb_locked.original),
            AppSATConfig(budget=self._expired()),
        )
        assert res.status == "timeout" and not res.completed

    def test_doubledip(self, comb_locked):
        res = doubledip_attack(
            comb_locked.locked,
            comb_locked.key_inputs,
            IdealOracle(comb_locked.original),
            DoubleDIPConfig(budget=self._expired()),
        )
        assert res.status == "timeout" and not res.completed

    def test_sequential_sat(self):
        design = generate_sequential(
            SequentialConfig(
                comb=GeneratorConfig(
                    n_inputs=6, n_outputs=6, n_gates=40, depth=4, seed=16,
                    name="seqfi",
                ),
                n_flops=3,
            )
        )
        prot = protect(
            design,
            orap=OraPConfig(variant="basic"),
            wll=WLLConfig(key_width=4, control_width=2, n_key_gates=2),
            rng=5,
        )
        chip = prot.build_chip()
        res = sequential_sat_attack(
            prot.design,
            prot.locked.key_inputs,
            FunctionalOracle(chip),
            SequentialSATConfig(
                depth=3, max_iterations=8, budget=self._expired()
            ),
        )
        assert res.status == "timeout" and not res.completed

    def test_mid_attack_deadline_via_injection(self, comb_locked):
        """Deadline expiring *during* the DIP loop (not before it)."""
        budget = Budget(wall_s=3600)
        faultinject.install(
            "sat.conflict", at=10, action=budget.force_expire
        )
        res = sat_attack(
            comb_locked.locked,
            comb_locked.key_inputs,
            IdealOracle(comb_locked.original),
            SATAttackConfig(budget=budget),
        )
        assert res.status == "timeout" and not res.completed

    def test_without_budget_attacks_still_succeed(self, comb_locked):
        res = sat_attack(
            comb_locked.locked,
            comb_locked.key_inputs,
            IdealOracle(comb_locked.original),
            SATAttackConfig(),
        )
        assert res.status == "ok" and res.completed
