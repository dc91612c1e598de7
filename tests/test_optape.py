"""Equivalence and regression tests for the compiled op-tape engine.

The scalar :class:`BitSimulator` is the oracle throughout: every engine
path (the materialized and fused programs, multi-key lanes)
must be bit-exact against it, and the batched multi-key HD reduction
must reproduce the looped per-key measurement report for report.
"""

import numpy as np
import pytest

from repro.bench import (
    GeneratorConfig,
    c17,
    generate_netlist,
    mini_alu,
    parity_tree,
    ripple_adder,
)
from repro.bench.registry import PAPER_ORDER, build_paper_circuit, scaled_key_size
from repro.locking import lock_random
from repro.netlist import GateType, Netlist
from repro.sim import (
    BitSimulator,
    broadcast_constant,
    clear_engine_cache,
    compile_engine,
    engine_cache_info,
    measure_corruption,
    netlist_fingerprint,
    OpTapeEngine,
    pack_patterns,
    popcount_lanes,
    popcount_words,
    random_words,
    sample_wrong_keys,
    unpack_patterns,
)
from repro.sim import metrics
from repro.sim.bitsim import _popcount_words_table


def _fixture_netlists():
    return [
        c17(),
        ripple_adder(4),
        mini_alu(4),
        parity_tree(8),
    ] + [
        generate_netlist(
            GeneratorConfig(
                n_inputs=9, n_outputs=7, n_gates=70, depth=6, seed=s, name=f"r{s}"
            )
        )
        for s in range(3)
    ]


class TestEngineEquivalence:
    @pytest.mark.parametrize("idx", range(7))
    def test_per_net_equal_to_bitsim(self, idx):
        nl = _fixture_netlists()[idx]
        sim = BitSimulator(nl)
        eng = OpTapeEngine(nl)
        words = random_words(len(nl.inputs), 200, seed=11)
        in_words = {n: words[i] for i, n in enumerate(nl.inputs)}
        vs = sim.run(in_words)
        ve = eng.run(in_words)
        for net in nl.nets:
            assert np.array_equal(
                vs[sim.net_index(net)], ve[eng.net_index(net)]
            ), (nl.name, net)

    def test_exhaustive_c17_against_evaluate(self):
        nl = c17()
        eng = OpTapeEngine(nl)
        from repro.sim import exhaustive_words, int_to_assignment

        words = exhaustive_words(5)
        out = eng.run_outputs({n: words[i] for i, n in enumerate(nl.inputs)})
        rows = unpack_patterns(out, 32)
        for v in range(32):
            want = nl.evaluate_outputs(int_to_assignment(v, nl.inputs))
            got = {o: int(rows[v][j]) for j, o in enumerate(nl.outputs)}
            assert got == want

    def test_array_input_form(self):
        nl = ripple_adder(3)
        eng = OpTapeEngine(nl)
        words = random_words(len(nl.inputs), 100, seed=2)
        out1 = eng.run_outputs(words)
        out2 = eng.run_outputs({n: words[i] for i, n in enumerate(nl.inputs)})
        assert np.array_equal(out1, out2)

    def test_input_validation(self):
        eng = OpTapeEngine(c17())
        with pytest.raises(ValueError):
            eng.run(np.zeros((3, 1), dtype=np.uint64))
        with pytest.raises(ValueError):
            eng.run({"G1": np.zeros(1, dtype=np.uint64)})


class TestRunKeyed:
    def test_matches_per_key_runs(self):
        nl = generate_netlist(
            GeneratorConfig(
                n_inputs=10, n_outputs=6, n_gates=60, depth=5, seed=7, name="k"
            )
        )
        lc = lock_random(nl, key_width=8, rng=1)
        locked = lc.locked
        eng = OpTapeEngine(locked)
        key_inputs = list(lc.key_inputs)
        data_inputs = [i for i in locked.inputs if i not in set(key_inputs)]
        data_words = random_words(len(data_inputs), 150, seed=3)
        keys = np.array(
            [[(k >> b) & 1 for b in range(8)] for k in (0, 3, 255, 129)],
            dtype=np.uint8,
        )
        batched = eng.run_keyed(data_inputs, data_words, key_inputs, keys)
        nw = data_words.shape[1]
        for lane, vec in enumerate(keys):
            in_words = {n: data_words[i] for i, n in enumerate(data_inputs)}
            for k, bit in zip(key_inputs, vec):
                in_words[k] = broadcast_constant(int(bit), nw)
            single = eng.run_outputs(in_words)
            assert np.array_equal(batched[lane], single), lane

    def test_shape_validation(self):
        nl = c17()
        eng = OpTapeEngine(nl)
        words = random_words(4, 64, seed=0)
        with pytest.raises(ValueError):
            eng.run_keyed(
                list(nl.inputs[:4]), words, ["nokey"], np.zeros((1, 1), np.uint8)
            )
        with pytest.raises(ValueError):
            # one data input missing
            eng.run_keyed(
                list(nl.inputs[:3]),
                words[:3],
                [nl.inputs[4]],
                np.zeros((1, 1), np.uint8),
            )


class TestBatchedCorruption:
    @pytest.mark.parametrize("cname", PAPER_ORDER[:4])
    def test_matches_scalar_backend_on_corpus(self, cname):
        nl = build_paper_circuit(cname, scale=0.02, seed=3)
        k = scaled_key_size(cname, 0.02)
        lc = lock_random(nl, key_width=k, rng=5)
        kwargs = dict(n_patterns=500, n_keys=7, seed=2)
        r_scalar = measure_corruption(
            lc.locked, list(lc.key_inputs), lc.correct_key,
            backend="scalar", **kwargs,
        )
        r_optape = measure_corruption(
            lc.locked, list(lc.key_inputs), lc.correct_key,
            backend="batched", **kwargs,
        )
        assert r_scalar == r_optape

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_scalar_backend_on_random_netlists(self, seed):
        nl = generate_netlist(
            GeneratorConfig(
                n_inputs=8, n_outputs=6, n_gates=55, depth=5, seed=seed, name="m"
            )
        )
        lc = lock_random(nl, key_width=6, rng=seed)
        kwargs = dict(n_patterns=321, n_keys=5, seed=seed)
        r_scalar = measure_corruption(
            lc.locked, list(lc.key_inputs), lc.correct_key,
            backend="scalar", **kwargs,
        )
        r_optape = measure_corruption(
            lc.locked, list(lc.key_inputs), lc.correct_key,
            backend="batched", **kwargs,
        )
        assert r_scalar == r_optape

    def test_lane_chunking_matches_unchunked(self, monkeypatch):
        nl = generate_netlist(
            GeneratorConfig(
                n_inputs=8, n_outputs=6, n_gates=55, depth=5, seed=9, name="c"
            )
        )
        lc = lock_random(nl, key_width=6, rng=9)
        kwargs = dict(n_patterns=200, n_keys=11, seed=1)
        wide = measure_corruption(
            lc.locked, list(lc.key_inputs), lc.correct_key, **kwargs
        )
        # 1-byte budget forces one lane per chunk
        monkeypatch.setattr(metrics, "DEFAULT_MAX_MATRIX_BYTES", 1)
        narrow = measure_corruption(
            lc.locked, list(lc.key_inputs), lc.correct_key, **kwargs
        )
        assert wide == narrow

    @pytest.mark.parametrize("n_patterns", [65, 70, 127])
    def test_tail_mask_applied_per_key_lane(self, n_patterns):
        # y = a XOR k: any wrong key flips every output bit, so HD must be
        # exactly 100% — with the tail mask applied to only one lane, the
        # other lanes would count padding bits and overshoot
        nl = Netlist("l")
        nl.add_input("a")
        nl.add_input("k")
        nl.add_gate("y", GateType.XOR, ["a", "k"])
        nl.set_outputs(["y"])
        rep = measure_corruption(
            nl, ["k"], {"k": 0}, n_patterns=n_patterns, n_keys=4
        )
        assert rep.per_key_hd == (100.0,) * 4
        assert rep.corrupted_pattern_fraction == 1.0

    def test_unknown_backend_rejected(self):
        nl = c17()
        with pytest.raises(ValueError):
            measure_corruption(nl, ["G1"], {"G1": 0}, backend="cuda")


class TestSampleWrongKeys:
    def test_deterministic_and_never_correct(self):
        names = [f"k{i}" for i in range(6)]
        correct = {n: 1 for n in names}
        a = sample_wrong_keys(names, correct, 50, seed=3)
        b = sample_wrong_keys(names, correct, 50, seed=3)
        assert a == b
        assert (1,) * 6 not in a

    def test_empty_key_list_rejected(self):
        with pytest.raises(ValueError):
            sample_wrong_keys([], {}, 1)


class TestCompileCache:
    def test_cache_hit_returns_same_engine(self):
        clear_engine_cache()
        nl = c17()
        a = compile_engine(nl)
        b = compile_engine(nl.copy())
        assert a is b
        hits = engine_cache_info()
        assert hits["size"] == 1

    def test_fingerprint_ignores_name_but_not_structure(self):
        nl = c17()
        renamed = nl.copy()
        renamed.name = "other"
        assert netlist_fingerprint(nl) == netlist_fingerprint(renamed)
        changed = nl.copy()
        changed.add_gate("extra", GateType.NOT, [nl.outputs[0]])
        assert netlist_fingerprint(nl) != netlist_fingerprint(changed)

    def test_cached_engine_ignores_later_mutation_of_its_source(self):
        # the engine compiled from ``a`` serves every netlist with a's
        # pre-mutation content; mutating ``a`` afterwards (as
        # lock_weighted does after ranking) must not leak into it
        clear_engine_cache()
        a = c17()
        b = a.copy()
        compile_engine(a)
        a.add_input("keyinput0")
        engine = compile_engine(b)
        words = random_words(len(b.inputs), 64, seed=1)
        in_words = {n: words[i] for i, n in enumerate(b.inputs)}
        want = BitSimulator(b).run_outputs(in_words)
        assert np.array_equal(engine.run_outputs(in_words), want)
        assert np.array_equal(engine.outputs_from_matrix(engine.run(in_words)), want)
        data = [i for i in b.inputs if i != "G1"]
        keyed = engine.run_keyed(
            data, words[1:], ["G1"], np.array([[0], [1]], dtype=np.uint8)
        )
        assert keyed.shape == (2, len(b.outputs), 1)
        assert engine.inputs == tuple(b.inputs)

    def test_cache_bypass(self):
        clear_engine_cache()
        nl = c17()
        a = compile_engine(nl, cache=False)
        b = compile_engine(nl, cache=False)
        assert a is not b
        assert engine_cache_info()["size"] == 0


class TestLazyLowering:
    """Compiling snapshots the netlist; each program (materialized,
    fused) is built once, on first use, from that snapshot."""

    @staticmethod
    def _count_lowerings(monkeypatch):
        """Record ``(kind, engine)`` for every lowering built."""
        from repro.sim import fused, optape

        built = []
        materialized, program = fused._Materialized, fused._build_program

        def build_materialized(engine):
            built.append(("materialized", engine))
            return materialized(engine)

        def build_program(engine):
            built.append(("fused", engine))
            return program(engine)

        monkeypatch.setattr(fused, "_Materialized", build_materialized)
        monkeypatch.setattr(fused, "_build_program", build_program)
        return built

    def test_compile_lowers_nothing(self, monkeypatch):
        built = self._count_lowerings(monkeypatch)
        engine = compile_engine(mini_alu(4), cache=False)
        assert built == []
        assert engine.n_nets == len(mini_alu(4))
        assert "_materialized_program" not in engine.__dict__
        assert "_fused_program" not in engine.__dict__

    def test_table1_row_lowers_each_netlist_once(self, monkeypatch):
        # the ranked original only runs materialized (ranking), every locked
        # netlist only runs fused (HD), and nothing is lowered twice
        from repro.experiments.source import CircuitSource
        from repro.experiments.table1 import _compute

        clear_engine_cache()
        built = self._count_lowerings(monkeypatch)
        row = _compute("b21", CircuitSource(0.01), 512, 4, 0)
        original = compile_engine(build_paper_circuit("b21", scale=0.01))
        kinds = {}
        for kind, engine in built:
            kinds.setdefault(id(engine), []).append(kind)
        assert kinds.pop(id(original)) == ["materialized"]
        first = max(1, scaled_key_size("b21", 0.01) // row.control_inputs)
        steps = (row.n_key_gates // first).bit_length()  # 1 + doublings
        assert steps >= 3
        assert sorted(kinds.values()) == [["fused"]] * steps

    @staticmethod
    def _mutate(nl):
        """Edit gates the way locking and resynthesis do."""
        gates = [g for g in nl.gates() if not g.gtype.is_source]
        key = nl.add_input("keyinput0")
        nl.rename_net(gates[0].name, "renamed")
        nl.add_gate("kg", GateType.XOR, ["renamed", key])
        for g in gates[1:]:
            if "renamed" in g.fanin:
                nl.replace_gate(
                    g.name, g.gtype, ["kg" if f == "renamed" else f for f in g.fanin]
                )
        target = gates[-1]
        nl.replace_gate(target.name, GateType.NAND, [nl.inputs[0], nl.inputs[1]])

    @pytest.mark.parametrize("first", ["fused", "materialized"])
    def test_lowering_after_mutation_matches_compile_time(self, first):
        nl = generate_netlist(
            GeneratorConfig(
                n_inputs=9, n_outputs=7, n_gates=70, depth=6, seed=5, name="m"
            )
        )
        before = nl.copy()
        engine = compile_engine(nl, cache=False)
        self._mutate(nl)
        assert netlist_fingerprint(nl) != netlist_fingerprint(before)
        words = random_words(len(before.inputs), 150, seed=4)
        want_values = BitSimulator(before).run(words)
        want = BitSimulator(before).outputs_from_matrix(want_values)
        runs = {
            "fused": lambda: engine.run_outputs(words),
            "materialized": lambda: engine.outputs_from_matrix(engine.run(words)),
        }
        for kind in (first, "materialized" if first == "fused" else "fused"):
            assert np.array_equal(runs[kind](), want), kind
        assert "renamed" not in engine._index
        assert engine.outputs == tuple(before.outputs)

    def test_six_threads_first_call_build_once(self, monkeypatch):
        import sys
        import threading

        built = self._count_lowerings(monkeypatch)
        nl = build_paper_circuit("b21", scale=0.01)
        engine = compile_engine(nl, cache=False)
        words = random_words(len(nl.inputs), 6 * 64, seed=9)
        want_values = BitSimulator(nl).run(words)
        want = BitSimulator(nl).outputs_from_matrix(want_values)
        barrier = threading.Barrier(6)
        got: dict[int, tuple] = {}

        def work(k):
            barrier.wait()
            values = engine.run(words)
            barrier.wait()
            # each thread its own column width: a bound plan owns its
            # arena, so two threads may not share one
            fused_out = engine.run_outputs(words[:, : k + 1])
            got[k] = (fused_out, values)

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
        assert sorted(got) == list(range(6))
        for k, (fused_out, values) in got.items():
            assert np.array_equal(fused_out, want[:, : k + 1])
            assert np.array_equal(engine.outputs_from_matrix(values), want)
            assert np.array_equal(values, got[0][1])
        assert sorted(kind for kind, _ in built) == ["fused", "materialized"]


class TestPopcountParity:
    def test_table_matches_fast_path(self):
        rng = np.random.default_rng(0)
        words = rng.integers(0, 2**64, size=(7, 13), dtype=np.uint64)
        assert popcount_words(words) == _popcount_words_table(words)

    def test_lanes_both_paths(self, monkeypatch):
        rng = np.random.default_rng(1)
        words = rng.integers(0, 2**64, size=(5, 4, 3), dtype=np.uint64)
        fast = popcount_lanes(words)
        monkeypatch.setattr("repro.sim.bitsim._HAS_BITWISE_COUNT", False)
        slow = popcount_lanes(words)
        assert np.array_equal(fast, slow)
        want = [popcount_words(words[i]) for i in range(5)]
        assert list(fast) == want

    def test_words_fallback_path(self, monkeypatch):
        rng = np.random.default_rng(2)
        words = rng.integers(0, 2**64, size=64, dtype=np.uint64)
        fast = popcount_words(words)
        monkeypatch.setattr("repro.sim.bitsim._HAS_BITWISE_COUNT", False)
        assert popcount_words(words) == fast


class TestVectorizedPacking:
    def test_roundtrip_large_random(self):
        rng = np.random.default_rng(3)
        bits = rng.integers(0, 2, size=(1000, 17), dtype=np.uint8)
        words = pack_patterns(bits)
        assert words.shape == (17, 16)
        assert np.array_equal(unpack_patterns(words, 1000), bits)

    def test_pack_matches_manual_reference(self):
        bits = np.zeros((70, 2), dtype=np.uint8)
        bits[0, 0] = 1
        bits[63, 0] = 1
        bits[64, 1] = 1
        bits[69, 0] = 1
        words = pack_patterns(bits)
        assert words[0, 0] == np.uint64((1 << 0) | (1 << 63))
        assert words[0, 1] == np.uint64(1 << 5)
        assert words[1, 1] == np.uint64(1 << 0)
