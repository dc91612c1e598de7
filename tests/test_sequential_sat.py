"""Tests for the sequential (unrolled) SAT attack."""

import pytest

from repro.attacks import (
    FunctionalOracle,
    SequentialSATConfig,
    key_is_correct,
    sequential_sat_attack,
)
from repro.bench import GeneratorConfig, SequentialConfig, generate_sequential
from repro.locking import WLLConfig
from repro.orap import OraPConfig, protect


def _protected(seed):
    design = generate_sequential(
        SequentialConfig(
            comb=GeneratorConfig(
                n_inputs=8, n_outputs=10, n_gates=60, depth=5, seed=seed,
                name="seq60",
            ),
            n_flops=4,
        )
    )
    return protect(
        design,
        orap=OraPConfig(variant="basic"),
        wll=WLLConfig(key_width=6, control_width=3, n_key_gates=2),
        rng=5,
    )


@pytest.fixture(scope="module")
def small_design():
    return _protected(16)


class TestFunctionalOracle:
    def test_traces_are_deterministic(self, small_design):
        chip = small_design.build_chip()
        oracle = FunctionalOracle(chip)
        seq = [
            {p: (t + i) % 2 for i, p in enumerate(chip.primary_inputs)}
            for t in range(5)
        ]
        t1 = oracle.query_sequence(seq)
        t2 = oracle.query_sequence(seq)
        assert t1 == t2
        assert oracle.n_queries == 2

    def test_trace_matches_unlocked_semantics(self, small_design):
        """The functional oracle exposes correct-key behaviour — OraP does
        not (and cannot) hide normal operation, only the scan oracle."""
        chip = small_design.build_chip()
        oracle = FunctionalOracle(chip)
        seq = [{p: 1 for p in chip.primary_inputs} for _ in range(3)]
        trace = oracle.query_sequence(seq)
        # replay with the reference model from the chip's post-unlock state
        chip.reset()
        chip.unlock()
        for pi, want in zip(seq, trace):
            got = chip.observe_outputs(pi)
            assert got == want
            chip.functional_cycle(pi)


class TestSequentialAttack:
    @pytest.mark.parametrize("depth", [2, 3, 4, 5, 6])
    def test_recovers_key_through_functional_access(self, small_design, depth):
        """A correct key is accepted at every depth, whichever post-unlock
        state the key-extraction model picked (depths 3 and 5 once
        rejected it: their extraction state differs from the chip's)."""
        chip = small_design.build_chip()
        oracle = FunctionalOracle(chip)
        res = sequential_sat_attack(
            small_design.design,
            small_design.locked.key_inputs,
            oracle,
            SequentialSATConfig(
                depth=depth, max_iterations=32, verify_sequences=4
            ),
        )
        assert res.completed
        assert key_is_correct(small_design.locked, res.recovered_key)
        assert res.notes["verified"]

    def test_wrong_key_does_not_complete(self):
        """One unrolled frame leaves the key underdetermined, so the
        extracted key is often wrong; verification must reject exactly
        the wrong ones.  Which hosts draw a wrong key depends on the
        models the solver returns, so the check runs over a small panel
        and requires at least one wrong key in it."""
        wrong = 0
        for seed in (18, 21, 23):
            protected = _protected(seed)
            res = sequential_sat_attack(
                protected.design,
                protected.locked.key_inputs,
                FunctionalOracle(protected.build_chip()),
                SequentialSATConfig(
                    depth=1, max_iterations=32, verify_sequences=4
                ),
            )
            assert res.recovered_key is not None
            correct = key_is_correct(protected.locked, res.recovered_key)
            assert res.completed == correct
            assert res.notes["verified"] == correct
            wrong += not correct
        assert wrong

    def test_cost_is_sequential_not_combinational(self, small_design):
        """The attack needed multi-cycle queries — each one a full
        reset+unlock+run session — instead of single scan transactions."""
        chip = small_design.build_chip()
        oracle = FunctionalOracle(chip)
        res = sequential_sat_attack(
            small_design.design,
            small_design.locked.key_inputs,
            oracle,
            SequentialSATConfig(depth=4, max_iterations=32, verify_sequences=2),
        )
        assert res.oracle_queries >= res.iterations + 2
