"""Tests for the ATPG substrate: faults, fault simulation, PODEM, SAT-ATPG."""

import itertools

import pytest

from repro.atpg import (
    PODEM,
    Fault,
    FaultSimulator,
    TestOutcome,
    collapse_faults,
    full_fault_list,
    inject_fault,
    run_atpg,
    sat_generate,
)
from repro.bench import GeneratorConfig, c17, generate_netlist, ripple_adder
from repro.netlist import GateType, Netlist
from repro.sim import random_words


@pytest.fixture(scope="module")
def redundant_circuit():
    """y = a OR (a AND b): the AND's influence is absorbed; several faults
    are untestable."""
    nl = Netlist("red")
    nl.add_input("a")
    nl.add_input("b")
    nl.add_gate("t", GateType.AND, ["a", "b"])
    nl.add_gate("y", GateType.OR, ["a", "t"])
    nl.set_outputs(["y"])
    return nl


class TestFaultModel:
    def test_full_list_counts_c17(self):
        nl = c17()
        full = full_fault_list(nl)
        # 11 nets x 2 output faults + 2 faults per branch pin of the three
        # fanout-2 nets (G3, G11, G16 -> 6 pins)
        assert len(full) == 22 + 12

    def test_collapsing_drops_nand_sa0_inputs(self):
        nl = c17()
        collapsed = collapse_faults(nl)
        assert len(collapsed) == 28  # 34 - 6 NAND input-sa0 faults
        for f in collapsed:
            if f.pin is not None:
                assert f.stuck_at == 1  # only sa1 input faults survive NAND

    def test_buf_not_input_faults_collapsed(self):
        nl = Netlist("b")
        nl.add_input("a")
        nl.add_gate("m", GateType.BUF, ["a"])
        nl.add_gate("n", GateType.NOT, ["a"])
        nl.add_gate("y", GateType.AND, ["m", "n"])
        nl.set_outputs(["y"])
        collapsed = collapse_faults(nl)
        assert all(
            f.pin is None or f.gate == "y" for f in collapsed
        )

    def test_site_net(self):
        nl = c17()
        f = Fault("G22", None, 0)
        assert f.site_net(nl) == "G22"
        f2 = Fault("G22", 1, 1)
        assert f2.site_net(nl) == "G16"

    def test_describe(self):
        assert Fault("g", None, 0).describe() == "g/sa0"
        assert Fault("g", 2, 1).describe() == "g.in2/sa1"


class TestFaultSimulator:
    def test_against_structural_injection(self):
        """PPSFP detection must equal simulating the injected netlist."""
        nl = generate_netlist(
            GeneratorConfig(
                n_inputs=8, n_outputs=6, n_gates=60, depth=5, seed=12, name="fs"
            )
        )
        sim = FaultSimulator(nl)
        words = random_words(len(nl.inputs), 64, seed=3)
        in_words = {n: words[i] for i, n in enumerate(nl.inputs)}
        good = sim.good_values(in_words)
        from repro.sim import BitSimulator

        for fault in collapse_faults(nl)[:60]:
            mask = sim.detects(fault, good, 64)
            faulty = inject_fault(nl, fault)
            fsim = BitSimulator(faulty)
            out_f = fsim.run_outputs({n: in_words[n] for n in faulty.inputs})
            out_g = BitSimulator(nl).run_outputs(in_words)
            want_any = bool((out_f ^ out_g).any())
            assert bool(mask.any()) == want_any, fault.describe()

    def test_detects_pattern_scalar(self):
        nl = c17()
        sim = FaultSimulator(nl)
        # G22 stuck-at-0: pattern making G22=1 detects it
        asg = {"G1": 1, "G2": 1, "G3": 1, "G6": 1, "G7": 1}
        assert nl.evaluate_outputs(asg)["G22"] == 1
        assert sim.detects_pattern(Fault("G22", None, 0), asg)
        assert not sim.detects_pattern(Fault("G22", None, 1), asg)


class TestPODEM:
    @pytest.mark.parametrize("maker", [c17, lambda: ripple_adder(3)])
    def test_exact_against_exhaustive(self, maker):
        nl = maker()
        podem = PODEM(nl, max_backtracks=500)
        fsim = FaultSimulator(nl)
        for fault in collapse_faults(nl):
            detectable = any(
                fsim.detects_pattern(fault, dict(zip(nl.inputs, bits)))
                for bits in itertools.product([0, 1], repeat=len(nl.inputs))
            )
            result = podem.generate(fault)
            if result.outcome is TestOutcome.DETECTED:
                assert detectable
                assert fsim.detects_pattern(fault, result.pattern)
            elif result.outcome is TestOutcome.REDUNDANT:
                # PODEM may misclassify composite-X cases; the engine's SAT
                # arbiter corrects them — here just confirm via SAT
                sat = sat_generate(nl, fault)
                assert (sat.outcome is TestOutcome.DETECTED) == detectable

    def test_redundant_fault_found(self, redundant_circuit):
        podem = PODEM(redundant_circuit, max_backtracks=100)
        # t stuck-at-0 is undetectable: y = a OR (a AND b) == a
        result = podem.generate(Fault("t", None, 0))
        assert result.outcome is TestOutcome.REDUNDANT


class TestSATGenerate:
    def test_exact_on_c17(self):
        nl = c17()
        fsim = FaultSimulator(nl)
        for fault in collapse_faults(nl):
            r = sat_generate(nl, fault)
            assert r.outcome is TestOutcome.DETECTED
            assert fsim.detects_pattern(fault, r.pattern)

    def test_redundancy_proof(self, redundant_circuit):
        r = sat_generate(redundant_circuit, Fault("t", None, 0))
        assert r.outcome is TestOutcome.REDUNDANT

    def test_inject_fault_output(self):
        nl = c17()
        faulty = inject_fault(nl, Fault("G22", None, 1))
        assert faulty.gate("G22").gtype is GateType.CONST1

    def test_inject_fault_pin(self):
        nl = c17()
        faulty = inject_fault(nl, Fault("G22", 0, 0))
        g = faulty.gate("G22")
        stuck = g.fanin[0]
        assert faulty.gate(stuck).gtype is GateType.CONST0
        # the other consumer of G10 is untouched
        assert "G10" in faulty.nets

    def test_inject_fault_on_input_net(self):
        nl = c17()
        faulty = inject_fault(nl, Fault("G1", None, 1))
        # G1 remains an input pin; consumers see constant 1
        assert "G1" in faulty.inputs
        out_all0 = faulty.evaluate_outputs(
            {"G1": 0, "G2": 0, "G3": 1, "G6": 0, "G7": 0}
        )
        want = nl.evaluate_outputs({"G1": 1, "G2": 0, "G3": 1, "G6": 0, "G7": 0})
        assert out_all0 == want


class TestEngine:
    def test_c17_full_coverage(self):
        rep = run_atpg(c17(), n_random_patterns=0)
        assert rep.fault_coverage_percent == 100.0
        assert rep.redundant_plus_aborted == 0
        assert rep.n_detected == rep.n_faults == 28

    def test_redundant_counted(self, redundant_circuit):
        rep = run_atpg(redundant_circuit, n_random_patterns=0)
        assert rep.n_redundant > 0
        assert rep.fault_coverage_percent < 100.0
        assert rep.n_aborted == 0

    def test_random_phase_does_the_heavy_lifting(self):
        nl = generate_netlist(
            GeneratorConfig(
                n_inputs=10, n_outputs=8, n_gates=80, depth=6, seed=2, name="e"
            )
        )
        rep = run_atpg(nl, n_random_patterns=512)
        assert rep.n_random_detected > rep.n_faults * 0.8

    def test_patterns_collected_when_asked(self):
        rep = run_atpg(c17(), n_random_patterns=0, collect_patterns=True)
        assert rep.n_patterns == len(rep.patterns) > 0

    def test_engine_choices_agree(self):
        nl = ripple_adder(3)
        reps = {
            engine: run_atpg(nl, n_random_patterns=0, deterministic=engine)
            for engine in ("sat", "podem+sat")
        }
        assert (
            reps["sat"].fault_coverage_percent
            == reps["podem+sat"].fault_coverage_percent
        )

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            run_atpg(c17(), deterministic="magic")

    def test_unconfirmed_test_counted_as_verdict_disagreement(self, monkeypatch):
        """A claimed test that fault simulation does not confirm is booked
        as aborted and counted as ``atpg.verdict.disagree``."""
        from repro import telemetry
        from repro.atpg.podem import TestResult
        from repro.telemetry import MemorySink

        nl = c17()
        # every fault "detected" by the all-zero pattern, which is wrong
        # for most of them
        monkeypatch.setattr(
            PODEM,
            "generate",
            lambda self, fault, budget=None: TestResult(
                TestOutcome.DETECTED, {i: 0 for i in nl.inputs}, 0
            ),
        )
        telemetry.configure(MemorySink())
        try:
            rep = run_atpg(nl, n_random_patterns=0, deterministic="podem")
            disagree = telemetry.counter_totals().get("atpg.verdict.disagree", 0)
        finally:
            telemetry.shutdown()
        assert rep.n_aborted > 0 and rep.n_redundant == 0
        assert disagree == rep.n_aborted

    @pytest.mark.parametrize("deterministic", ["sat", "podem+sat"])
    def test_sat_give_up_counted_as_aborted(self, deterministic):
        """A fault SAT-ATPG abandons at its conflict budget is booked as
        aborted and counted as ``atpg.sat.aborted``."""
        from repro import telemetry
        from repro.telemetry import MemorySink

        nl = generate_netlist(
            GeneratorConfig(
                n_inputs=12, n_outputs=10, n_gates=110, depth=6, seed=7, name="t2"
            )
        )
        telemetry.configure(MemorySink())
        try:
            rep = run_atpg(
                nl,
                n_random_patterns=0,
                deterministic=deterministic,
                sat_conflict_budget=0,
            )
            aborted = telemetry.counter_totals().get("atpg.sat.aborted", 0)
        finally:
            telemetry.shutdown()
        assert rep.n_aborted > 0
        assert aborted == rep.n_aborted

    def test_key_inputs_act_as_test_inputs(self):
        """The Table II effect: a locked circuit with free key inputs has
        fault coverage at least as high as the original."""
        from repro.locking import WLLConfig, lock_weighted

        nl = generate_netlist(
            GeneratorConfig(
                n_inputs=12, n_outputs=10, n_gates=110, depth=6, seed=7, name="t2"
            )
        )
        locked = lock_weighted(
            nl, WLLConfig(key_width=9, control_width=3, n_key_gates=4), rng=3
        )
        rep_orig = run_atpg(nl, n_random_patterns=512)
        rep_prot = run_atpg(locked.locked, n_random_patterns=512)
        assert (
            rep_prot.fault_coverage_percent
            >= rep_orig.fault_coverage_percent - 1.0
        )
