"""Forced lanes on the materialized program, against :class:`BitSimulator`.

The forced lanes sort lanes by net, cut them into chunks by the size of
a reused-row arena, and evaluate only each chunk's fanout-cone union,
reading every other operand from the unforced matrix.  Each case here
targets one of those moves: lane order and duplicate nets, chunks whose
cones miss outputs, BUF/NOT/MUX nets (copy, invert and select steps of
the materialized program), and the arena bound itself.
"""

import random

import numpy as np
import pytest

from repro import telemetry
from repro.bench import GeneratorConfig, generate_netlist
from repro.netlist import GateType, Netlist
from repro.sim import (
    BitSimulator,
    compile_engine,
    popcount_words,
    random_words,
    tail_mask,
)
from repro.sim import fused, optape
from repro.sim.bitsim import _eval_words
from repro.telemetry import MemorySink, validate_record

_ONES = 0xFFFFFFFFFFFFFFFF


def _reference(nl, in_words, lanes, n_patterns):
    """(counts, masks) per ``(net, words)`` lane, one BitSimulator run each."""
    sim = BitSimulator(nl)
    base = sim.run_outputs(in_words)
    counts, masks = [], []
    for net, words in lanes:
        diff = sim.run_outputs(in_words, forced={net: words}) ^ base
        diff[:, -1] &= tail_mask(n_patterns)
        counts.append(popcount_words(diff))
        masks.append(np.bitwise_or.reduce(diff, axis=0))
    return np.array(counts, dtype=np.int64), np.array(masks, dtype=np.uint64)


def _random_words(rng, n_words):
    kind = rng.randrange(3)
    if kind == 0:
        return np.zeros(n_words, dtype=np.uint64)
    if kind == 1:
        return np.full(n_words, _ONES, dtype=np.uint64)
    return np.array([rng.getrandbits(64) for _ in range(n_words)], dtype=np.uint64)


def _check(nl, lanes_of, n_patterns, seed):
    """Forced lanes ``lanes_of(rng, n_words)`` == the oracle, in caller order."""
    words = random_words(len(nl.inputs), n_patterns, seed=seed)
    in_words = {n: words[i] for i, n in enumerate(nl.inputs)}
    lanes = lanes_of(random.Random(seed), words.shape[1])
    want_counts, want_masks = _reference(nl, in_words, lanes, n_patterns)
    engine = compile_engine(nl, cache=False)
    good = engine.run(words)
    rows = [engine.net_index(net) for net, _ in lanes]
    forced = np.array([w for _, w in lanes], dtype=np.uint64).reshape(
        len(lanes), words.shape[1]
    )
    assert np.array_equal(
        engine.count_output_flips(good, rows, forced, n_patterns), want_counts
    )
    assert np.array_equal(
        engine.output_flip_masks(good, rows, forced, n_patterns), want_masks
    )
    return engine


def _random_circuit(seed, n_gates=80):
    return generate_netlist(
        GeneratorConfig(
            n_inputs=9, n_outputs=7, n_gates=n_gates, depth=6, seed=seed,
            name=f"fc{seed}",
        )
    )


def _buf_not_mux():
    """BUF/NOT chains, MUXes with inverted and buffered selects, a
    repeated fan-in and constants — every gate type of the IR."""
    nl = Netlist("bnm")
    for name in ("a", "b", "c", "d", "s"):
        nl.add_input(name)
    nl.add_gate("one", GateType.CONST1, [])
    nl.add_gate("ns", GateType.NOT, ["s"])
    nl.add_gate("bs", GateType.BUF, ["ns"])
    nl.add_gate("nns", GateType.NOT, ["bs"])
    nl.add_gate("m1", GateType.MUX, ["ns", "a", "b"])  # inverted select
    nl.add_gate("m2", GateType.MUX, ["nns", "m1", "c"])
    nl.add_gate("m3", GateType.MUX, ["bs", "d", "d"])  # equal data inputs
    nl.add_gate("x", GateType.XNOR, ["m1", "m2", "m3"])
    nl.add_gate("na", GateType.NAND, ["x", "one", "a"])
    nl.add_gate("no", GateType.NOR, ["m2", "m2"])  # repeated fan-in
    nl.add_gate("o1", GateType.OR, ["na", "no", "c", "d"])
    nl.add_gate("an", GateType.AND, ["o1", "bs"])
    nl.add_gate("xo", GateType.XOR, ["an", "ns"])
    nl.add_gate("bo", GateType.BUF, ["xo"])
    nl.add_gate("no2", GateType.NOT, ["m3"])
    for o in ("bo", "no2", "m1", "ns"):
        nl.add_output(o)
    return nl


def _two_islands():
    """Two subcircuits that share no net: a cone in one misses every
    output of the other."""
    nl = Netlist("islands")
    for side in ("l", "r"):
        for i in range(3):
            nl.add_input(f"{side}{i}")
        nl.add_gate(f"{side}g0", GateType.AND, [f"{side}0", f"{side}1"])
        nl.add_gate(f"{side}g1", GateType.XOR, [f"{side}g0", f"{side}2"])
        nl.add_gate(f"{side}g2", GateType.NOT, [f"{side}g1"])
        nl.add_gate(f"{side}g3", GateType.OR, [f"{side}g2", f"{side}0"])
        nl.add_output(f"{side}g3")
        nl.add_output(f"{side}g1")
    return nl


class TestForcedCones:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("chunk_bytes", [1, 3000, 2 << 20])
    def test_shuffled_lanes_with_duplicate_rows(self, monkeypatch, seed, chunk_bytes):
        # each net forced one to three times with different words, lanes
        # in random order: results come back in caller order
        monkeypatch.setattr(optape, "_LANE_CHUNK_BYTES", chunk_bytes)
        monkeypatch.setattr(optape, "_MIN_CHUNK_LANES", 1)
        nl = _random_circuit(seed)

        def lanes_of(rng, nw):
            lanes = [
                (net, _random_words(rng, nw))
                for net in nl.nets
                for _ in range(rng.randrange(1, 4))
            ]
            rng.shuffle(lanes)
            return lanes

        _check(nl, lanes_of, 130, seed)

    @pytest.mark.parametrize("chunk_bytes", [1, 200])
    def test_chunks_whose_cones_miss_outputs(self, monkeypatch, chunk_bytes):
        monkeypatch.setattr(optape, "_LANE_CHUNK_BYTES", chunk_bytes)
        monkeypatch.setattr(optape, "_MIN_CHUNK_LANES", 1)
        nl = _two_islands()
        engine = _check(
            nl, lambda rng, nw: [(n, _random_words(rng, nw)) for n in nl.nets], 100, 3
        )
        good = engine.run(random_words(len(nl.inputs), 100, seed=3))
        rows = np.array([engine.net_index("lg2"), engine.net_index("rg0")])
        chunks = list(
            fused.forced_lane_diffs(
                engine, good, rows, ~good[rows], 100, optape._LANE_CHUNK_BYTES,
                optape._MIN_CHUNK_LANES,
            )
        )
        # lg2 reaches one output of four, rg0 reaches the right island's two
        reached = sorted(diff.shape[0] for _, diff in chunks)
        assert reached == ([1, 2] if len(chunks) == 2 else [3])

    @pytest.mark.parametrize("n_patterns", [1, 64, 200])
    def test_buf_not_and_mux_nets(self, n_patterns):
        nl = _buf_not_mux()
        engine = _check(
            nl,
            lambda rng, nw: [(n, _random_words(rng, nw)) for n in nl.nets],
            n_patterns,
            n_patterns,
        )
        words = random_words(len(nl.inputs), n_patterns, seed=1)
        want = BitSimulator(nl)
        values = want.run({n: words[i] for i, n in enumerate(nl.inputs)})
        got = engine.run(words)
        for net in nl.nets:
            assert np.array_equal(
                got[engine.net_index(net)], values[want.net_index(net)]
            ), net

    def test_run_rows_follow_the_snapshot(self):
        nl = _buf_not_mux()
        engine = compile_engine(nl, cache=False)
        assert [engine.net_index(g.name) for g in engine._gates] == list(
            range(engine.n_nets)
        )

    @pytest.mark.parametrize("chunk_bytes", [1, 5000, 40000, 2 << 20])
    def test_arena_never_exceeds_the_cap(self, monkeypatch, chunk_bytes):
        monkeypatch.setattr(optape, "_LANE_CHUNK_BYTES", chunk_bytes)
        monkeypatch.setattr(optape, "_MIN_CHUNK_LANES", 1)
        nl = _random_circuit(4, n_gates=120)
        engine = compile_engine(nl, cache=False)
        good = engine.run(random_words(len(nl.inputs), 300, seed=4))
        nw = good.shape[1]
        lane_bytes = fused.materialized_for(engine).n_rows * nw * 8
        rows = np.arange(engine.n_nets)
        sink = MemorySink()
        telemetry.configure(sink)
        try:
            engine.count_output_flips(good, rows, ~good[rows], 300)
        finally:
            telemetry.shutdown()
        for rec in sink.records:
            assert validate_record(rec) is None
        (span,) = [
            r for r in sink.of_kind("span")
            if r["name"] == "optape.run" and "chunks" in r["attrs"]
        ]
        attrs = span["attrs"]
        assert attrs["arena_bytes"] <= max(chunk_bytes, lane_bytes)
        per_chunk = max(1, chunk_bytes // lane_bytes)
        assert attrs["arena_bytes"] == lane_bytes * min(per_chunk, engine.n_nets)
        assert attrs["chunks"] == -(-engine.n_nets // per_chunk)
        assert attrs["lanes"] == engine.n_nets
        # once lanes are split, chunks of late nets skip the early steps
        (skipped,) = [
            r["value"] for r in sink.of_kind("counter")
            if r["name"] == "optape.forced.steps_skipped"
        ]
        assert (skipped > 0) == (attrs["chunks"] > 1)

    @pytest.mark.parametrize("min_lanes", [1, 3, 7, 10_000])
    def test_lane_floor_overrides_the_byte_cap(self, monkeypatch, min_lanes):
        # one lane's arena passes the byte cap, as on a paper-size circuit
        monkeypatch.setattr(optape, "_LANE_CHUNK_BYTES", 1)
        nl = _random_circuit(5, n_gates=100)
        engine = compile_engine(nl, cache=False)
        good = engine.run(random_words(len(nl.inputs), 200, seed=5))
        rows = np.arange(engine.n_nets)
        monkeypatch.setattr(optape, "_MIN_CHUNK_LANES", 1)
        want = engine.count_output_flips(good, rows, ~good[rows], 200)
        monkeypatch.setattr(optape, "_MIN_CHUNK_LANES", min_lanes)
        sink = MemorySink()
        telemetry.configure(sink)
        try:
            got = engine.count_output_flips(good, rows, ~good[rows], 200)
        finally:
            telemetry.shutdown()
        assert np.array_equal(got, want)
        (span,) = [
            r for r in sink.of_kind("span")
            if r["name"] == "optape.run" and "chunks" in r["attrs"]
        ]
        lane_bytes = fused.materialized_for(engine).n_rows * good.shape[1] * 8
        assert span["attrs"]["chunks"] == -(-engine.n_nets // min_lanes)
        assert span["attrs"]["arena_bytes"] == lane_bytes * min(
            min_lanes, engine.n_nets
        )

    def test_arena_is_smaller_than_the_matrix(self):
        # live-range reuse: a lane costs far fewer rows than nets
        engine = compile_engine(_random_circuit(5, n_gates=300), cache=False)
        assert fused.materialized_for(engine).n_rows < engine.n_nets // 2


class TestPinFaultPrimitives:
    @pytest.mark.parametrize(
        "gtype",
        [t for t in GateType if not t.is_source],
        ids=lambda t: t.value,
    )
    def test_eval_gate_matches_bitsim(self, gtype):
        rng = np.random.default_rng(7)
        arities = [gtype.min_fanin] if gtype.max_fanin else [2, 3, 5]
        for arity in arities:
            operands = rng.integers(0, 2**64, size=(arity, 4, 3), dtype=np.uint64)
            got = fused.eval_gate(gtype, list(operands))
            for g in range(4):
                want = _eval_words(gtype, operands[:, g], list(range(arity)), 3)
                assert np.array_equal(got[g], want), (gtype, arity)
