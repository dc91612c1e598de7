"""Execution lanes: fused-vs-reference equivalence, the deprecated lane
knobs, solver persistence and the incremental SAT attack.

The differential suites assert *byte-identical* packed output words
between the fused lane, the grouped numpy reference and the bit-true
:class:`BitSimulator` oracle — across acyclic and cyclic circuits,
non-multiple-of-64 pattern tails and degenerate key widths — because the
fused planner rewrites the tape aggressively (polarity absorption, De
Morgan dual forms, live-range row reuse) and "close enough" is not a
thing for bit vectors.
"""

import warnings

import numpy as np
import pytest

from repro.bench import GeneratorConfig, generate_netlist
from repro.locking import lock_cyclic, lock_random
from repro.netlist import Netlist
from repro.sat import Solver
from repro.sim import BitSimulator, compile_engine, pack_patterns
from repro.sim.patterns import random_words


def _circuit(seed, n_gates=80, n_inputs=8, n_outputs=6, depth=5):
    return generate_netlist(
        GeneratorConfig(
            n_inputs=n_inputs,
            n_outputs=n_outputs,
            n_gates=n_gates,
            depth=depth,
            seed=seed,
            name=f"bk{seed}",
        )
    )


def _reference_outputs(netlist, input_words, n_patterns):
    """Bit-true oracle: per-pattern scalar simulation, repacked."""
    sim = BitSimulator(netlist)
    rows = []
    names = list(netlist.inputs)
    for c in range(n_patterns):
        assignment = {
            name: np.array(
                [(int(input_words[r][c >> 6]) >> (c & 63)) & 1],
                dtype=np.uint64,
            )
            for r, name in enumerate(names)
        }
        out_words = sim.run_outputs(assignment)  # (n_out, 1) packed words
        rows.append([int(w[0]) & 1 for w in out_words])
    # pack_patterns: (n_patterns, n_signals) -> (n_signals, n_words)
    return pack_patterns(np.array(rows, dtype=np.uint8))


class TestDifferential:
    """The fused lane == the numpy reference == the scalar oracle."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("n_patterns", [64, 777])
    def test_acyclic_run_outputs(self, seed, n_patterns):
        netlist = _circuit(seed)
        engine = compile_engine(netlist, cache=False)
        words = random_words(len(netlist.inputs), n_patterns, seed=seed)
        ref = engine.run_outputs(words, backend="numpy")
        expected = _reference_outputs(netlist, words, n_patterns)
        mask = np.uint64(0xFFFFFFFFFFFFFFFF)
        if n_patterns % 64:
            mask = np.uint64((1 << (n_patterns % 64)) - 1)
        assert np.array_equal(ref[:, :-1], expected[:, :-1])
        assert np.array_equal(ref[:, -1] & mask, expected[:, -1] & mask)
        got = engine.run_outputs(words, backend="fused")
        assert np.array_equal(got[:, :-1], ref[:, :-1])
        assert np.array_equal(got[:, -1] & mask, ref[:, -1] & mask)

    @pytest.mark.parametrize("seed", [0, 5])
    def test_cyclic_regions(self, seed):
        netlist = _circuit(seed, n_gates=120)
        cyclic = lock_cyclic(netlist, 4, rng=seed).locked
        engine = compile_engine(cyclic, cache=False)
        words = random_words(len(cyclic.inputs), 256, seed=seed + 1)
        ref = engine.run_outputs(words, backend="numpy")
        got = engine.run_outputs(words, backend="fused")
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize("key_width", [0, 1, 67])
    def test_run_keyed_key_widths(self, key_width):
        netlist = _circuit(7, n_gates=180, n_inputs=6)
        locked = (
            lock_random(netlist, key_width, rng=3).locked
            if key_width
            else netlist
        )
        key_inputs = [
            i for i in locked.inputs if i.startswith("keyinput")
        ]
        data_inputs = [i for i in locked.inputs if i not in set(key_inputs)]
        assert len(key_inputs) == key_width
        engine = compile_engine(locked, cache=False)
        rng = np.random.default_rng(11)
        data_words = random_words(len(data_inputs), 130, seed=2)
        key_bits = rng.integers(0, 2, size=(5, key_width), dtype=np.uint8)
        ref = engine.run_keyed(
            data_inputs, data_words, key_inputs, key_bits, backend="numpy"
        )
        got = engine.run_keyed(
            data_inputs, data_words, key_inputs, key_bits, backend="fused"
        )
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert np.array_equal(got, ref)


class TestFusedInternals:
    def test_plan_cache_counters(self):
        from repro import telemetry
        from repro.sim.fused import _plan_for
        from repro.telemetry import MemorySink

        netlist = _circuit(21)
        engine = compile_engine(netlist, cache=False)
        telemetry.configure(MemorySink())
        try:
            base = telemetry.counter_totals()
            p1 = _plan_for(engine, 4)
            p2 = _plan_for(engine, 4)
            assert p1 is p2
            p3 = _plan_for(engine, 8)
            assert p3 is not p1
            totals = telemetry.counter_totals()
            # program build + two distinct-width plan builds, one hit
            built = totals.get("optape.plan.build", 0) - base.get(
                "optape.plan.build", 0
            )
            hits = totals.get("optape.plan.hit", 0) - base.get(
                "optape.plan.hit", 0
            )
            assert built == 3
            assert hits == 1
        finally:
            telemetry.shutdown()


class TestSolverPersistence:
    """Learned-clause retention across solve(assumptions=...) calls must
    never change a SAT/UNSAT answer."""

    def _random_cnf(self, rng, n_vars, n_clauses):
        clauses = []
        for _ in range(n_clauses):
            width = rng.choice([2, 3, 3])
            vs = rng.sample(range(1, n_vars + 1), width)
            clauses.append(
                [v if rng.random() < 0.5 else -v for v in vs]
            )
        return clauses

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_incremental_answers_match_fresh(self, seed):
        import random

        rng = random.Random(seed)
        n_vars = 30
        clauses = self._random_cnf(rng, n_vars, 110)
        persistent = Solver()
        for c in clauses:
            persistent.add_clause(c)
        for probe in range(12):
            assumps = [
                v if rng.random() < 0.5 else -v
                for v in rng.sample(range(1, n_vars + 1), 4)
            ]
            fresh = Solver()
            for c in clauses:
                fresh.add_clause(c)
            expected = fresh.solve(assumptions=assumps).sat
            got = persistent.solve(assumptions=assumps).sat
            assert got == expected, (seed, probe, assumps)

    def test_learned_clauses_accumulate(self):
        import random

        rng = random.Random(7)
        solver = Solver()
        for c in self._random_cnf(rng, 40, 170):
            solver.add_clause(c)
        solver.solve(assumptions=[1, 2])
        solver.solve(assumptions=[-1, -2])
        # conflict stats accumulate across calls (persistence, not resets)
        assert solver.stats_conflicts >= 0
        total = solver.solve()
        assert total.conflicts <= solver.stats_conflicts


class TestIncrementalSATAttack:
    @pytest.fixture(scope="class")
    def instance(self):
        # the bench's fixed instance: hard enough that legacy needs
        # several DIP iterations, so solver persistence + batching have
        # room to show (tiny instances converge in 2 DIPs either way)
        base = _circuit(4, n_gates=120, n_inputs=10, n_outputs=10, depth=6)
        return base, lock_random(base, 16, rng=7)

    def _oracle(self, base):
        from repro.attacks.oracle import IdealOracle

        return IdealOracle(base)

    def test_incremental_matches_legacy_and_solves_less(self, instance):
        from repro.attacks import SATAttackConfig, sat_attack
        from repro.sat import prove_unlocks

        base, lc = instance
        legacy = sat_attack(
            lc.locked,
            lc.key_inputs,
            self._oracle(base),
            SATAttackConfig(max_iterations=128, incremental=False),
        )
        inc = sat_attack(
            lc.locked,
            lc.key_inputs,
            self._oracle(base),
            SATAttackConfig(max_iterations=128),
        )
        assert legacy.completed and inc.completed
        assert prove_unlocks(base, lc.locked, legacy.recovered_key)
        assert prove_unlocks(base, lc.locked, inc.recovered_key)
        assert inc.notes["n_solves"] <= legacy.notes["n_solves"]
        assert inc.notes["dips_per_solve"] >= legacy.notes["dips_per_solve"]

    def test_batching_disabled_still_correct(self, instance):
        from repro.attacks import SATAttackConfig, sat_attack
        from repro.sat import prove_unlocks

        base, lc = instance
        res = sat_attack(
            lc.locked,
            lc.key_inputs,
            self._oracle(base),
            SATAttackConfig(max_iterations=128, dip_batch=1),
        )
        assert res.completed
        assert prove_unlocks(base, lc.locked, res.recovered_key)

    def test_zero_key_width(self):
        from repro.attacks import SATAttackConfig, sat_attack

        base = _circuit(17, n_gates=40, n_inputs=5, n_outputs=4)
        res = sat_attack(
            base, [], self._oracle(base), SATAttackConfig(max_iterations=16)
        )
        assert res.completed
        assert res.recovered_key == {}

    def test_iteration_budget_respected(self, instance):
        from repro.attacks import SATAttackConfig, sat_attack

        base, lc = instance
        res = sat_attack(
            lc.locked,
            lc.key_inputs,
            self._oracle(base),
            SATAttackConfig(max_iterations=1),
        )
        assert res.iterations <= 1


class TestMetricsKnobs:
    def _locked(self):
        base = _circuit(8, n_gates=70, n_inputs=7, n_outputs=6)
        return base, lock_random(base, 6, rng=2)

    def test_tiny_chunk_cap_matches_scalar(self, monkeypatch):
        from repro.sim import measure_corruption, metrics

        _, lc = self._locked()
        scalar = measure_corruption(
            lc.locked,
            lc.key_inputs,
            lc.correct_key,
            n_patterns=777,
            n_keys=5,
            seed=1,
            backend="scalar",
        )
        # every chunk degenerates to one lane
        monkeypatch.setattr(metrics, "DEFAULT_MAX_MATRIX_BYTES", 1)
        tiny = measure_corruption(
            lc.locked,
            lc.key_inputs,
            lc.correct_key,
            n_patterns=777,
            n_keys=5,
            seed=1,
        )
        assert tiny == scalar

    def test_optape_backend_name_removed(self):
        from repro.sim import measure_corruption

        _, lc = self._locked()
        with pytest.raises(ValueError, match="optape"):
            measure_corruption(
                lc.locked,
                lc.key_inputs,
                lc.correct_key,
                n_patterns=64,
                n_keys=2,
                seed=0,
                backend="optape",
            )


class TestEngineDispatchValidation:
    @pytest.mark.parametrize("backend", ["auto", "numba", "nonsense"])
    def test_unknown_engine_backend_is_value_error(self, backend):
        netlist = _circuit(19, n_inputs=5)
        engine = compile_engine(netlist, cache=False)
        words = random_words(len(netlist.inputs), 64, seed=0)
        with pytest.raises(ValueError, match="unknown sim backend"):
            engine.run_outputs(words, backend=backend)
        with pytest.raises(ValueError, match="unknown sim backend"):
            engine.run_keyed(
                list(netlist.inputs), words, [], np.zeros((1, 0), np.uint8),
                backend=backend,
            )

    def test_run_keyed_validates_before_dispatch(self):
        netlist = _circuit(19, n_inputs=5)
        engine = compile_engine(netlist, cache=False)
        data_inputs = list(netlist.inputs)
        words = random_words(len(data_inputs) - 1, 64, seed=0)  # short rows
        with pytest.raises(ValueError):
            engine.run_keyed(
                data_inputs, words, [], np.zeros((1, 0), np.uint8),
                backend="fused",
            )

    def test_fingerprint_memo_survives_copy_and_mutation(self):
        from repro.sim import netlist_fingerprint

        netlist = _circuit(23)
        fp1 = netlist_fingerprint(netlist)
        assert netlist_fingerprint(netlist) == fp1  # memoized path
        copied = netlist.copy()
        assert netlist_fingerprint(copied) == fp1
        assert isinstance(copied, Netlist)
        gate_name = next(iter(copied.outputs))
        copied.rename_net(gate_name, gate_name + "_renamed")
        assert netlist_fingerprint(copied) != fp1


def _measure(**kwargs):
    from repro.sim import measure_corruption

    base = _circuit(8, n_gates=70, n_inputs=7, n_outputs=6)
    lc = lock_random(base, 6, rng=2)
    return measure_corruption(
        lc.locked, lc.key_inputs, lc.correct_key, n_patterns=300, n_keys=5,
        seed=3, **kwargs,
    )


def _table1(**policy_kwargs):
    from repro.experiments import RunPolicy, run_table1

    policy = RunPolicy(**policy_kwargs) if policy_kwargs else None
    return run_table1(
        scale=0.005, circuits=["s38417"], n_patterns=256, n_keys=4,
        policy=policy,
    )


def _serve_config(tmp_path, **kwargs):
    from repro.service import ServeConfig

    return ServeConfig(state_dir=tmp_path, **kwargs)


class TestDeprecatedNoOps:
    """Every v1 lane/chunk spelling warns exactly once and changes
    nothing: all lanes and chunk caps were bit-identical by contract."""

    CASES = [
        ("measure_corruption", {"backend": "numpy"}),
        ("measure_corruption", {"backend": "fused"}),
        ("measure_corruption", {"backend": "numba"}),
        ("measure_corruption", {"backend": "cupy"}),
        ("measure_corruption", {"max_matrix_bytes": 1}),
        ("run_table1", {"sim_backend": "numba"}),
        ("run_table1", {"max_matrix_bytes": 1}),
        ("ServeConfig", {"sim_backend": "cupy"}),
        ("ServeConfig", {"max_matrix_bytes": 1 << 20}),
    ]

    @pytest.mark.parametrize(
        "surface,kwargs",
        CASES,
        ids=[f"{s}-{k}={v}" for s, kw in CASES for k, v in kw.items()],
    )
    def test_warns_once_and_matches_default(self, surface, kwargs, tmp_path):
        run = {
            "measure_corruption": _measure,
            "run_table1": _table1,
            "ServeConfig": lambda **kw: _serve_config(tmp_path, **kw),
        }[surface]
        default = run()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = run(**kwargs)
        deprecations = [
            w for w in caught if issubclass(w.category, DeprecationWarning)
        ]
        assert len(deprecations) == 1, [str(w.message) for w in deprecations]
        assert "deprecated and ignored" in str(deprecations[0].message)
        assert deprecations[0].filename == __file__  # blames the caller
        assert got == default
