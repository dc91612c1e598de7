"""Differential tests for the op-tape engine's forced lanes.

:meth:`OpTapeEngine.count_output_flips` / :meth:`output_flip_masks` must
equal, lane by lane, a :class:`BitSimulator` run with the same single
net forced.  The two callers built on them — lock-site ranking and the
fault simulator — must equal straightforward one-net-at-a-time
reference implementations kept here, on the paper corpus and on random
circuits.
"""

import random
import sys
import threading

import numpy as np
import pytest

from repro.atpg import Fault, FaultSimulator, collapse_faults, full_fault_list
from repro.bench import GeneratorConfig, c17, generate_netlist
from repro.bench.registry import PAPER_ORDER, build_paper_circuit
from repro.experiments.source import CircuitSource
from repro.experiments.table1 import lock_for_table1
from repro.locking import fll
from repro.locking.base import insert_key_gate, make_key_inputs
from repro.locking.fll import rank_nets_by_fault_impact
from repro.netlist import GateType, Netlist
from repro.sim import (
    BitSimulator,
    compile_engine,
    popcount_words,
    random_words,
    tail_mask,
)
from repro.sim import optape
from repro.sim.bitsim import _eval_words


def _random_circuit(seed, n_gates=70):
    return generate_netlist(
        GeneratorConfig(
            n_inputs=9, n_outputs=7, n_gates=n_gates, depth=6, seed=seed,
            name=f"fl{seed}",
        )
    )


def _with_constants():
    nl = Netlist("consts")
    for name in ("a", "b", "c"):
        nl.add_input(name)
    nl.add_gate("zero", GateType.CONST0, [])
    nl.add_gate("one", GateType.CONST1, [])
    nl.add_gate("g1", GateType.AND, ["a", "one"])
    nl.add_gate("g2", GateType.OR, ["b", "zero"])
    nl.add_gate("g3", GateType.XOR, ["g1", "g2", "c"])
    nl.add_gate("g4", GateType.MUX, ["c", "g1", "g2"])
    nl.add_gate("g5", GateType.NOR, ["g3", "zero"])
    for o in ("g3", "g4", "g5"):
        nl.add_output(o)
    return nl


def _lane_cases(nl, rng, n_words):
    """Random (net, forced words) lanes: flips, constants and noise."""
    lanes = []
    for net in nl.nets:
        kind = rng.randrange(3)
        if kind == 0:
            words = np.zeros(n_words, dtype=np.uint64)
        elif kind == 1:
            words = np.full(n_words, 0xFFFFFFFFFFFFFFFF, dtype=np.uint64)
        else:
            words = np.array(
                [rng.getrandbits(64) for _ in range(n_words)], dtype=np.uint64
            )
        lanes.append((net, words))
    return lanes


def _reference_flips(nl, in_words, lanes, n_patterns):
    sim = BitSimulator(nl)
    base = sim.run_outputs(in_words)
    counts, masks = [], []
    for net, words in lanes:
        diff = sim.run_outputs(in_words, forced={net: words}) ^ base
        diff[:, -1] &= tail_mask(n_patterns)
        counts.append(popcount_words(diff))
        masks.append(np.bitwise_or.reduce(diff, axis=0))
    return np.array(counts, dtype=np.int64), np.array(masks, dtype=np.uint64)


def _check_lanes(nl, n_patterns, seed=0):
    words = random_words(len(nl.inputs), n_patterns, seed=seed)
    in_words = {n: words[i] for i, n in enumerate(nl.inputs)}
    lanes = _lane_cases(nl, random.Random(seed), words.shape[1])
    want_counts, want_masks = _reference_flips(nl, in_words, lanes, n_patterns)
    engine = compile_engine(nl, cache=False)
    good = engine.run(words)
    rows = [engine.net_index(net) for net, _ in lanes]
    forced = np.array([w for _, w in lanes], dtype=np.uint64)
    got_counts = engine.count_output_flips(good, rows, forced, n_patterns)
    got_masks = engine.output_flip_masks(good, rows, forced, n_patterns)
    assert got_counts.dtype == np.int64
    assert np.array_equal(got_counts, want_counts)
    assert np.array_equal(got_masks, want_masks)


class TestForcedLanesAgainstBitSimulator:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n_patterns", [64, 100, 193])
    def test_random_circuits(self, seed, n_patterns):
        _check_lanes(_random_circuit(seed), n_patterns, seed=seed)

    def test_forced_inputs_and_constants(self):
        # every net is a lane, so inputs and CONST0/CONST1 sources are
        # forced as well as gates
        _check_lanes(_with_constants(), 75, seed=2)
        _check_lanes(c17(), 5, seed=1)

    def test_no_step_writes_a_constant_row(self):
        # constants are sources, filled before the first step runs
        from repro.sim import fused

        engine = compile_engine(_with_constants(), cache=False)
        consts = {engine.net_index("zero"), engine.net_index("one")}
        program = fused.materialized_for(engine)
        assert not any(program.net_steps[c] for c in consts)
        logic = range(engine._n_sources, engine.n_nets)
        assert not consts & {program.phys[r] for r in logic}
        assert not consts & {o for *_, o in fused.program_for(engine).steps}

    @pytest.mark.parametrize("chunk_bytes", [1, 20000, 60000])
    def test_chunk_boundaries(self, monkeypatch, chunk_bytes):
        # 1 byte -> one lane per chunk; the others split the lanes into
        # several uneven chunks
        monkeypatch.setattr(optape, "_LANE_CHUNK_BYTES", chunk_bytes)
        monkeypatch.setattr(optape, "_MIN_CHUNK_LANES", 1)
        _check_lanes(_random_circuit(7, n_gates=90), 150, seed=7)
        _check_lanes(_with_constants(), 70, seed=8)

    def test_no_lanes(self):
        nl = c17()
        engine = compile_engine(nl, cache=False)
        good = engine.run(random_words(len(nl.inputs), 64, seed=0))
        empty = np.zeros((0, 1), dtype=np.uint64)
        assert engine.count_output_flips(good, [], empty, 64).shape == (0,)

    def test_shape_validation(self):
        nl = c17()
        engine = compile_engine(nl, cache=False)
        good = engine.run(random_words(len(nl.inputs), 64, seed=0))
        with pytest.raises(ValueError):
            engine.count_output_flips(
                good, [0, 1], np.zeros((2, 3), dtype=np.uint64), 64
            )


# --------------------------------------------------------------------- #
# callers against one-net-at-a-time references


def _reference_rank(netlist, n_patterns=512, seed=0, max_candidates=2000):
    sim = BitSimulator(netlist)
    words = random_words(len(netlist.inputs), n_patterns, seed=seed)
    in_words = {name: words[i] for i, name in enumerate(netlist.inputs)}
    base_values = sim.run(in_words)
    base_out = sim.outputs_from_matrix(base_values)
    candidates = [n for n in netlist.nets if not netlist.gate(n).gtype.is_source]
    if len(candidates) > max_candidates:
        candidates = random.Random(seed).sample(candidates, max_candidates)
    scores = []
    for net in candidates:
        flipped = ~base_values[sim.net_index(net)]
        diff = sim.run_outputs(in_words, forced={net: flipped}) ^ base_out
        diff[:, -1] &= tail_mask(n_patterns)
        scores.append((net, popcount_words(diff) / n_patterns))
    scores.sort(key=lambda t: (-t[1], t[0]))
    return scores


def _reference_detected(netlist, faults, in_words, n_patterns):
    sim = BitSimulator(netlist)
    good = sim.run(in_words)
    base = sim.outputs_from_matrix(good)
    nw = good.shape[1]
    detected = set()
    for fault in faults:
        stuck = np.full(nw, 0xFFFFFFFFFFFFFFFF if fault.stuck_at else 0,
                        dtype=np.uint64)
        if fault.pin is None:
            site = stuck
        else:
            g = netlist.gate(fault.gate)
            vals = np.stack([good[sim.net_index(f)] for f in g.fanin])
            vals[fault.pin] = stuck
            site = _eval_words(g.gtype, vals, list(range(len(g.fanin))), nw)
        diff = sim.run_outputs(in_words, forced={fault.gate: site}) ^ base
        diff[:, -1] &= tail_mask(n_patterns)
        if diff.any():
            detected.add(fault)
    return detected


def _corpus():
    return [build_paper_circuit(name, scale=0.01, seed=1) for name in PAPER_ORDER[:3]]


class TestRankingAgainstReference:
    @pytest.mark.parametrize("idx", range(3))
    def test_paper_corpus(self, idx):
        nl = _corpus()[idx]
        assert rank_nets_by_fault_impact(nl, n_patterns=200, seed=idx) == (
            _reference_rank(nl, n_patterns=200, seed=idx)
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_random_circuits_with_sampling(self, seed):
        nl = _random_circuit(seed, n_gates=80)
        # max_candidates below the net count exercises the sampled path
        got = rank_nets_by_fault_impact(nl, n_patterns=130, seed=seed,
                                        max_candidates=40)
        assert got == _reference_rank(nl, n_patterns=130, seed=seed,
                                      max_candidates=40)


class TestRankingMemo:
    """The ranking is memoized on the compiled engine, keyed by content
    and arguments; a hit runs no forced-lane pass."""

    @pytest.fixture(autouse=True)
    def cold_cache(self):
        optape.clear_engine_cache()
        yield
        optape.clear_engine_cache()

    @pytest.fixture
    def passes(self, monkeypatch):
        """Forced-lane passes run, counted per ``count_output_flips`` call."""
        calls = []
        real = optape.OpTapeEngine.count_output_flips

        def counted(self, *args, **kwargs):
            calls.append(1)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(optape.OpTapeEngine, "count_output_flips", counted)
        return calls

    def test_same_content_copy_hits(self, passes):
        nl = _random_circuit(1)
        first = rank_nets_by_fault_impact(nl, n_patterns=130)
        again = rank_nets_by_fault_impact(nl.copy("other"), n_patterns=130)
        assert len(passes) == 1
        assert again == _reference_rank(nl, n_patterns=130)
        assert again is not first

    def test_mutating_a_result_leaves_the_memo(self, passes):
        nl = _random_circuit(2)
        got = rank_nets_by_fault_impact(nl)
        expected = list(got)
        got.reverse()
        got.append(("bogus", 9.0))
        assert rank_nets_by_fault_impact(nl) == expected
        assert len(passes) == 1

    def test_key_gate_insertion_misses(self, passes):
        nl = _random_circuit(3)
        ranking = rank_nets_by_fault_impact(nl)
        (key_in,) = make_key_inputs(nl, 1)
        insert_key_gate(nl, ranking[0][0], key_in, False, tag="t")
        assert rank_nets_by_fault_impact(nl) == _reference_rank(nl)
        assert len(passes) == 2

    @pytest.mark.parametrize(
        "change",
        [
            {"n_patterns": 130},
            {"seed": 1},
            {"max_candidates": 40},
            {"candidates": ["g0", "g1", "g2"]},
        ],
        ids=lambda change: next(iter(change)),
    )
    def test_each_argument_is_part_of_the_key(self, passes, change):
        nl = _random_circuit(4)
        rank_nets_by_fault_impact(nl)
        got = rank_nets_by_fault_impact(nl, **change)
        assert len(passes) == 2
        if "candidates" in change:
            assert sorted(n for n, _ in got) == change["candidates"]
        else:
            assert got == _reference_rank(nl, **change)

    def test_clear_engine_cache_drops_the_memo(self, passes):
        nl = _random_circuit(5)
        rank_nets_by_fault_impact(nl)
        optape.clear_engine_cache()
        rank_nets_by_fault_impact(nl)
        assert len(passes) == 2

    def test_bound_evicts_the_oldest(self, passes):
        nl = _random_circuit(6)
        bound = fll._RANKINGS_PER_ENGINE
        for seed in range(bound + 1):
            rank_nets_by_fault_impact(nl, seed=seed)
        assert len(passes) == bound + 1
        rank_nets_by_fault_impact(nl, seed=bound)  # newest: kept
        assert len(passes) == bound + 1
        rank_nets_by_fault_impact(nl, seed=0)  # oldest: evicted
        assert len(passes) == bound + 2

    def test_concurrent_callers_agree(self):
        """Threads hitting, missing and evicting one engine's memo at once
        each get the right ranking, and the memo ends full, within its bound."""
        nl = _random_circuit(7, n_gates=40)
        bound = fll._RANKINGS_PER_ENGINE
        seeds = range(bound + 2)  # more keys than the bound: evictions race hits
        expected = {s: _reference_rank(nl, n_patterns=70, seed=s) for s in seeds}
        wrong = []

        def work(offset):
            for i in range(3 * len(seeds)):
                seed = (i + offset) % len(seeds)
                got = rank_nets_by_fault_impact(nl, n_patterns=70, seed=seed)
                if got != expected[seed]:
                    wrong.append(seed)

        threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
        assert len(optape.compile_engine(nl).__dict__["_rankings"]) == bound

    def test_table1_doubling_ranks_once(self, passes):
        c = CircuitSource(0.01, None).circuit("b21", build_paper_circuit)
        first = c.first_wll().n_key_gates
        _, _, n_key_gates = lock_for_table1(
            c.netlist, c.key_width, c.control_inputs, n_patterns=512, n_keys=4
        )
        assert n_key_gates >= 4 * first  # doubled at least twice
        assert len(passes) == 1


class TestFaultSimulatorAgainstReference:
    @staticmethod
    def _check(nl, faults, n_patterns, seed):
        words = random_words(len(nl.inputs), n_patterns, seed=seed)
        in_words = {n: words[i] for i, n in enumerate(nl.inputs)}
        got = FaultSimulator(nl).run(faults, in_words, n_patterns)
        assert got == _reference_detected(nl, faults, in_words, n_patterns)

    @pytest.mark.parametrize("idx", range(3))
    def test_paper_corpus(self, idx):
        nl = _corpus()[idx]
        faults = sorted(collapse_faults(nl), key=Fault.sort_key)
        self._check(nl, faults, 128, seed=idx)
        self._check(nl, faults, 1, seed=idx)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("n_patterns", [1, 70])
    def test_random_circuits_full_fault_list(self, seed, n_patterns):
        # the uncollapsed list includes pin faults on every fan-out branch
        nl = _random_circuit(seed)
        faults = full_fault_list(nl)
        assert any(f.pin is not None for f in faults)
        self._check(nl, faults, n_patterns, seed)

    def test_detects_is_one_lane(self):
        nl = _random_circuit(5)
        sim = FaultSimulator(nl)
        words = random_words(len(nl.inputs), 90, seed=4)
        in_words = {n: words[i] for i, n in enumerate(nl.inputs)}
        good = sim.good_values(in_words)
        detected = sim.run(full_fault_list(nl), in_words, 90)
        for fault in full_fault_list(nl):
            mask = sim.detects(fault, good, 90)
            assert mask.shape == (2,)
            assert bool(mask.any()) == (fault in detected)
