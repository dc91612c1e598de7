"""Tests for the locking schemes (RLL, FLL, WLL, SARLock, Anti-SAT)."""

import itertools
import random

import pytest

from repro.bench import GeneratorConfig, c17, generate_netlist, mini_alu
from repro.locking import (
    LockingError,
    WLLConfig,
    insert_key_gate,
    lock_antisat,
    lock_fault_analysis,
    lock_random,
    lock_sarlock,
    lock_weighted,
    make_key_inputs,
    rank_nets_by_fault_impact,
)
from repro.netlist import GateType, Netlist
from repro.sat import prove_unlocks
from repro.sim import functional_match_fraction, measure_corruption


@pytest.fixture(scope="module")
def medium():
    return generate_netlist(
        GeneratorConfig(
            n_inputs=14, n_outputs=10, n_gates=120, depth=7, seed=8, name="m"
        )
    )


class TestBaseHelpers:
    def test_make_key_inputs_avoids_collisions(self):
        nl = Netlist()
        nl.add_input("keyinput0")
        names = make_key_inputs(nl, 2)
        assert len(set(names)) == 2
        assert "keyinput0" not in names

    def test_insert_key_gate_preserves_function_with_pass_value(self):
        nl = c17()
        nl.add_input("k")
        insert_key_gate(nl, "G22", "k", inverted=False, tag="t")
        orig = c17()
        assert functional_match_fraction(
            orig, nl, n_patterns=64, inputs_b={"k": 0}
        ) == 1.0
        assert functional_match_fraction(
            orig, nl, n_patterns=64, inputs_b={"k": 1}
        ) < 1.0

    def test_insert_key_gate_rejects_inputs(self):
        nl = c17()
        nl.add_input("k")
        with pytest.raises(LockingError):
            insert_key_gate(nl, "G1", "k", inverted=False, tag="t")

    def test_locked_circuit_utilities(self):
        lc = lock_random(c17(), key_width=3, rng=0)
        assert lc.key_width == 3
        assert set(lc.data_inputs) == set(c17().inputs)
        assert len(lc.key_vector()) == 3
        as_int = lc.key_as_int()
        assert 0 <= as_int < 8
        wrong = lc.random_wrong_key(rng=1)
        assert tuple(wrong[k] for k in lc.key_inputs) != lc.key_vector()

    def test_apply_key_hardwires(self):
        lc = lock_random(c17(), key_width=3, rng=0)
        keyed = lc.apply_key(lc.correct_key)
        assert functional_match_fraction(lc.original, keyed, n_patterns=64) == 1.0
        keyed_seq = lc.apply_key(list(lc.key_vector()))
        assert functional_match_fraction(lc.original, keyed_seq, n_patterns=64) == 1.0

    def test_apply_key_length_mismatch(self):
        lc = lock_random(c17(), key_width=3, rng=0)
        with pytest.raises(LockingError):
            lc.apply_key([0, 1])


class TestRLLAndFLL:
    @pytest.mark.parametrize("locker", [lock_random, lock_fault_analysis])
    def test_correct_key_unlocks(self, locker, medium):
        lc = locker(medium, key_width=6, rng=3)
        assert prove_unlocks(lc.original, lc.locked, lc.correct_key)

    @pytest.mark.parametrize("locker", [lock_random, lock_fault_analysis])
    def test_wrong_key_corrupts(self, locker, medium):
        lc = locker(medium, key_width=6, rng=3)
        wrong = lc.random_wrong_key(rng=0)
        match = functional_match_fraction(
            lc.original, lc.locked, n_patterns=512, inputs_b=wrong
        )
        assert match < 1.0

    def test_rll_too_many_keys_rejected(self):
        with pytest.raises(LockingError):
            lock_random(c17(), key_width=100)

    def test_fll_targets_have_high_impact(self, medium):
        ranking = rank_nets_by_fault_impact(medium, n_patterns=256)
        scores = dict(ranking)
        lc = lock_fault_analysis(medium, key_width=4, rng=0, n_patterns=256)
        targets = lc.extra["targets"]
        # chosen targets are the ranking's top entries
        top = [n for n, _ in ranking[:4]]
        assert set(targets) == set(top)
        worst_chosen = min(scores[t] for t in targets)
        median_all = sorted(scores.values())[len(scores) // 2]
        assert worst_chosen >= median_all

    def test_ranking_sampling_cap(self, medium):
        ranking = rank_nets_by_fault_impact(
            medium, n_patterns=128, max_candidates=10
        )
        assert len(ranking) == 10


class TestWLL:
    def test_correct_key_unlocks(self, medium):
        lc = lock_weighted(
            medium, WLLConfig(key_width=12, control_width=3, n_key_gates=5), rng=1
        )
        assert prove_unlocks(lc.original, lc.locked, lc.correct_key)

    def test_high_actuation_probability(self, medium):
        """Each weighted key gate flips with prob ~1-2^-w under wrong keys:
        HD should be much higher than a comparable single-bit RLL."""
        wll = lock_weighted(
            medium, WLLConfig(key_width=12, control_width=3, n_key_gates=6), rng=1
        )
        rep = measure_corruption(
            wll.locked, wll.key_inputs, wll.correct_key, n_patterns=1024, n_keys=8
        )
        assert rep.hd_percent > 10.0
        assert rep.corrupted_pattern_fraction > 0.9

    def test_control_gate_structure(self, medium):
        cfg = WLLConfig(key_width=12, control_width=3, n_key_gates=4)
        lc = lock_weighted(medium, cfg, rng=2)
        for ctrl in lc.extra["control_gates"]:
            g = lc.locked.gate(ctrl)
            assert g.gtype in (GateType.AND, GateType.NAND)
            assert len(g.fanin) == 3

    def test_key_gate_flavour_matches_control(self, medium):
        cfg = WLLConfig(key_width=9, control_width=3, n_key_gates=3)
        lc = lock_weighted(medium, cfg, rng=2)
        for target, ctrl in zip(lc.extra["targets"], lc.extra["control_gates"]):
            kg = lc.locked.gate(target)
            cg = lc.locked.gate(ctrl)
            if cg.gtype is GateType.AND:
                assert kg.gtype is GateType.XNOR
            else:
                assert kg.gtype is GateType.XOR

    def test_exclude_nets_respected(self, medium):
        exclude = set(medium.nets[: len(medium.nets) // 2])
        lc = lock_weighted(
            medium,
            WLLConfig(key_width=6, control_width=3, n_key_gates=2),
            rng=1,
            exclude_nets=exclude,
        )
        assert not (set(lc.extra["targets"]) & exclude)

    def test_correct_key_is_random_not_all_ones(self):
        # over several seeds the correct keys must differ (inversion mask)
        keys = set()
        nl = generate_netlist(
            GeneratorConfig(n_inputs=10, n_outputs=8, n_gates=60, depth=5, seed=1, name="k")
        )
        for seed in range(6):
            lc = lock_weighted(
                nl, WLLConfig(key_width=6, control_width=3, n_key_gates=2), rng=seed
            )
            keys.add(lc.key_vector())
        assert len(keys) > 2

    @pytest.mark.parametrize(
        "key_width,control_width,n_key_gates", [(9, 3, 4), (16, 4, 8), (32, 3, 12)]
    )
    def test_no_gate_mixes_key_and_primary_inputs(
        self, key_width, control_width, n_key_gates
    ):
        """No gate takes both a key input and a primary input, so WLL has
        no key-vs-input comparator: the restore unit FALL [18] looks for
        in cube-stripping schemes does not exist."""
        cfg = WLLConfig(key_width, control_width, n_key_gates)
        for seed in range(5):
            nl = generate_netlist(
                GeneratorConfig(
                    n_inputs=14, n_outputs=10, n_gates=120, depth=7,
                    seed=seed, name=f"w{seed}",
                )
            )
            for rng in range(5):
                lc = lock_weighted(nl, cfg, rng=rng)
                keys, data = set(lc.key_inputs), set(lc.data_inputs)
                mixed = [
                    g.name
                    for g in lc.locked.gates()
                    if keys & set(g.fanin) and data & set(g.fanin)
                ]
                assert not mixed

    def test_config_validation(self, medium):
        with pytest.raises(LockingError):
            lock_weighted(medium, WLLConfig(key_width=4, control_width=1))
        with pytest.raises(LockingError):
            lock_weighted(medium, WLLConfig(key_width=2, control_width=3))
        with pytest.raises(LockingError):
            lock_weighted(
                medium,
                WLLConfig(key_width=6, control_width=3, target_strategy="nope"),
            )


class TestSARLock:
    def test_correct_key_unlocks(self):
        lc = lock_sarlock(mini_alu(2), key_width=5, rng=4)
        assert prove_unlocks(lc.original, lc.locked, lc.correct_key)

    def test_wrong_key_errs_on_exactly_one_compared_pattern(self):
        nl = c17()
        lc = lock_sarlock(nl, key_width=5, rng=4)
        wrong = lc.random_wrong_key(rng=0)
        n_bad = 0
        for bits in itertools.product([0, 1], repeat=5):
            asg = dict(zip(lc.data_inputs, bits))
            want = lc.original.evaluate_outputs(asg)
            got = lc.locked.evaluate_outputs({**asg, **wrong})
            if want != got:
                n_bad += 1
        assert n_bad == 1  # the SAT-resistance property

    def test_key_width_bounds(self):
        with pytest.raises(LockingError):
            lock_sarlock(c17(), key_width=10)


class TestAntiSAT:
    def test_correct_key_unlocks(self):
        lc = lock_antisat(c17(), half_width=4, rng=2)
        assert prove_unlocks(lc.original, lc.locked, lc.correct_key)

    def test_any_equal_halves_unlock(self):
        """Anti-SAT's key space: every K1 == K2 is a correct key."""
        lc = lock_antisat(c17(), half_width=3, rng=2)
        rng = random.Random(0)
        shared = [rng.randrange(2) for _ in range(3)]
        key = {}
        for i, b in enumerate(shared):
            key[lc.key_inputs[i]] = b
            key[lc.key_inputs[3 + i]] = b
        assert prove_unlocks(lc.original, lc.locked, key)

    def test_unequal_halves_corrupt_somewhere(self):
        lc = lock_antisat(c17(), half_width=3, rng=2)
        key = {k: 0 for k in lc.key_inputs}
        key[lc.key_inputs[0]] = 1  # K1 != K2
        assert not prove_unlocks(lc.original, lc.locked, key)

    def test_low_corruptibility(self):
        """Anti-SAT corrupts very few patterns — the weakness the paper
        contrasts OraP+WLL against."""
        nl = generate_netlist(
            GeneratorConfig(n_inputs=12, n_outputs=8, n_gates=80, depth=6, seed=2, name="a")
        )
        lc = lock_antisat(nl, half_width=10, rng=1)
        rep = measure_corruption(
            lc.locked, lc.key_inputs, lc.correct_key, n_patterns=2048, n_keys=8
        )
        assert rep.hd_percent < 1.0
