"""The unified attack registry, config-unification shims and the
spellings removed in 1.2.0 and later."""

from __future__ import annotations

import dataclasses
import importlib

import numpy as np
import pytest

import repro
from repro.__main__ import main
from repro.atpg import Fault, FaultSimulator
from repro.attacks import (
    AttackConfig,
    AttackResult,
    HillClimbConfig,
    IdealOracle,
    SATAttackConfig,
    SensitizationConfig,
    get_attack,
    list_attacks,
    run_attack,
)
from repro.bench import GeneratorConfig, generate_netlist
from repro.experiments import RunPolicy, run_table1
from repro.lint import LintReport, lint_netlist, lint_orap, lint_paper_benchmarks
from repro.lint.cli import lint_orap_chips, lint_path, run_lint
from repro.locking import WLLConfig, lock_weighted
from repro.netlist import Netlist
from repro.runtime.budget import Budget
from repro.sim import compile_engine, random_words
from repro.sim.metrics import measure_corruption


@pytest.fixture(scope="module")
def host():
    return generate_netlist(
        GeneratorConfig(
            n_inputs=8, n_outputs=6, n_gates=60, depth=5, seed=11, name="api"
        )
    )


@pytest.fixture(scope="module")
def wll(host):
    return lock_weighted(
        host, WLLConfig(key_width=6, control_width=3, n_key_gates=2), rng=3
    )


class TestRegistry:
    def test_the_eight_headline_attacks_are_registered(self):
        assert list_attacks() == (
            "appsat", "bypass", "doubledip", "hillclimb",
            "removal", "sat", "sensitization", "sps",
        )

    def test_unknown_name_lists_known_ones(self):
        with pytest.raises(ValueError, match="sat"):
            run_attack("nope", None)

    def test_specs_carry_config_types(self):
        assert get_attack("sat").config_type is SATAttackConfig
        assert get_attack("sps").config_type is None

    def test_round_trip_every_registered_attack(self, wll):
        """Every registry entry runs end-to-end and returns a well-formed
        AttackResult on a small locked netlist."""
        for name in list_attacks():
            spec = get_attack(name)
            oracle = IdealOracle(wll.original) if spec.needs_oracle else None
            result = run_attack(name, wll, oracle)
            assert isinstance(result, AttackResult), name
            assert result.attack == name
            assert isinstance(result.completed, bool)
            assert result.iterations >= 0
            assert result.oracle_queries >= 0
            assert result.status in ("ok", "timeout", "budget", "error")

    def test_sat_recovers_correct_key_via_registry(self, wll):
        result = run_attack("sat", wll, IdealOracle(wll.original))
        assert result.completed
        assert result.recovered_key == wll.correct_key

    def test_bare_netlist_needs_key_inputs(self, wll):
        with pytest.raises(TypeError, match="key_inputs"):
            run_attack("sps", wll.locked)
        result = run_attack("sps", wll.locked, key_inputs=wll.key_inputs)
        assert result.attack == "sps"

    def test_oracle_required_when_spec_says_so(self, wll):
        with pytest.raises(TypeError, match="oracle"):
            run_attack("sat", wll)

    def test_config_type_is_enforced(self, wll):
        with pytest.raises(TypeError, match="SATAttackConfig"):
            run_attack(
                "sat", wll, IdealOracle(wll.original), config=HillClimbConfig()
            )

    def test_budget_threads_into_config(self, wll):
        budget = Budget(wall_s=60.0)
        result = run_attack(
            "sat",
            wll,
            IdealOracle(wll.original),
            config=SATAttackConfig(max_iterations=64),
            budget=budget,
        )
        assert result.completed

    def test_budget_rejected_for_configless_attacks(self, wll):
        with pytest.raises(TypeError, match="budget"):
            run_attack("sps", wll, budget=Budget(wall_s=1.0))


class TestConfigUnification:
    def test_shared_base_fields(self):
        for cls in (SATAttackConfig, HillClimbConfig, SensitizationConfig):
            assert issubclass(cls, AttackConfig)
            fields = {f.name for f in dataclasses.fields(cls)}
            assert {"max_iterations", "seed", "budget"} <= fields

    def test_with_budget_copies(self):
        cfg = SATAttackConfig(max_iterations=5)
        budget = Budget(wall_s=1.0)
        out = cfg.with_budget(budget)
        assert out is not cfg and out.budget is budget
        assert out.max_iterations == 5
        assert cfg.budget is None  # original untouched
        assert cfg.with_budget(None) is cfg

    def test_hillclimb_max_flips_removed(self):
        # the pre-v1 shim completed its deprecation cycle: the legacy
        # spelling is gone from the frozen surface, not silently aliased
        with pytest.raises(TypeError, match="max_flips"):
            HillClimbConfig(max_flips=99)
        assert not hasattr(HillClimbConfig(max_iterations=99), "max_flips")

    def test_sensitization_max_rounds_removed(self):
        with pytest.raises(TypeError, match="max_rounds"):
            SensitizationConfig(max_rounds=2)
        assert not hasattr(SensitizationConfig(max_iterations=2), "max_rounds")


class TestCorruptionBackendKeyword:
    def _measure(self, wll, backend, **kw):
        return measure_corruption(
            wll.locked,
            list(wll.key_inputs),
            wll.correct_key,
            n_patterns=200,
            n_keys=4,
            seed=1,
            backend=backend,
            **kw,
        )

    def test_auto_equals_batched(self, wll):
        assert self._measure(wll, "auto") == self._measure(wll, "batched")

    def test_legacy_optape_spelling_removed(self, wll):
        with pytest.raises(ValueError, match="optape"):
            self._measure(wll, "optape")

    def test_unknown_backend_rejected(self, wll):
        with pytest.raises(ValueError, match="vectorized"):
            self._measure(wll, "vectorized")


def _data_inputs(wll):
    keys = set(wll.key_inputs)
    return [i for i in wll.locked.inputs if i not in keys]


def _words(wll):
    return random_words(len(wll.locked.inputs), 64, seed=0)


def _detects(wll, **kwargs):
    fsim = FaultSimulator(wll.locked)
    words = dict(zip(wll.locked.inputs, _words(wll)))
    fault = Fault(wll.locked.outputs[0], None, 0)
    return fsim.detects(fault, fsim.good_values(words), 64, **kwargs)


class TestRemovedIn120:
    """Spellings removed in 1.2.0 and later fail the way an unknown
    spelling does, with no warning shim in between.  1.2.0 removed
    everything deprecated in 1.1.0: the job service and the lane, chunk
    and supervision no-op knobs.  1.3.0 removed the E6 arms race, the
    E8 scaling study and the SAIL attack, which served no paper
    artifact.  1.4.0 removed what 1.3.0 deprecated: CycSAT, FALL,
    cyclic locking, TTLock and ``Netlist(allow_cycles=)``.  1.5.0
    removed the corpus store and the download tier: a corpus circuit is
    read in place from its packaged fixture.  1.6.0 removed the op-tape
    engine's ``backend=`` lane choice (the fused lane is the one lane,
    checked against BitSimulator), the telemetry-overhead projection,
    ``repro chaos run --keep``, ``detects(early_exit=)`` and
    ``repro.sim.words_for_assignment``.  1.7.0 cut ``repro.lint`` down to
    the pre-flight it gates: the CNF analyzer, waivers, ``LintConfig``,
    the info rules and ``repro lint --no-info`` are gone, and so is every
    lint name or parameter that only lint's own tests used.  1.8.0 left
    one netlist reader: lint's tolerant BENCH scan, its file drivers, the
    text rules NL011/NL012 and the front end's per-format file entry
    points are gone.  1.9.0 left one strash and one AIG-to-CNF encoder:
    ``repro.attacks.encoding`` moved to ``repro.sat.AIGEncoder``, and the
    Tseitin whole-copy wrappers, the netlist-only miter helpers, lint's
    second loop finder and ``netlist_to_aig``'s shared-AIG keywords are
    gone."""

    SERVICE_EXPORTS = (
        "JobSpec", "JobStatus", "execute_job", "job_content_key",
        "ServeConfig", "serve", "ServiceClient", "ServiceError",
    )
    CASES = [
        *(
            pytest.param(
                lambda wll, b=b: measure_corruption(
                    wll.locked, list(wll.key_inputs), wll.correct_key,
                    n_patterns=64, n_keys=2, backend=b,
                ),
                ValueError,
                id=f"measure_corruption-backend={b}",
            )
            for b in ("numpy", "fused", "numba", "cupy")
        ),
        pytest.param(
            lambda wll: measure_corruption(
                wll.locked, list(wll.key_inputs), wll.correct_key,
                n_patterns=64, n_keys=2, max_matrix_bytes=1,
            ),
            TypeError,
            id="measure_corruption-max_matrix_bytes",
        ),
        pytest.param(
            lambda wll: RunPolicy(sim_backend="numba"), TypeError,
            id="RunPolicy-sim_backend",
        ),
        pytest.param(
            lambda wll: RunPolicy(max_matrix_bytes=1 << 20), TypeError,
            id="RunPolicy-max_matrix_bytes",
        ),
        pytest.param(
            lambda wll: RunPolicy(supervised=False), TypeError,
            id="RunPolicy-supervised",
        ),
        *(
            pytest.param(
                lambda wll, n=n: getattr(repro, n), AttributeError,
                id=f"repro.{n}",
            )
            for n in SERVICE_EXPORTS
        ),
        pytest.param(
            lambda wll: importlib.import_module("repro.service"),
            ModuleNotFoundError,
            id="import-repro.service",
        ),
        pytest.param(lambda wll: main(["serve"]), SystemExit, id="cli-serve"),
        pytest.param(
            lambda wll: main(["job", "list"]), SystemExit, id="cli-job-list"
        ),
        *(
            pytest.param(lambda wll, c=c: main([c]), SystemExit, id=f"cli-{c}")
            for c in ("arms-race", "scaling")
        ),
        *(
            pytest.param(
                lambda wll, a=a: main(["corpus", *a]), SystemExit,
                id=f"cli-corpus-{'-'.join(a)}",
            )
            for a in (
                ("fetch",), ("stats",), ("list", "--corpus-dir", "d"),
                ("list", "--offline"),
            )
        ),
        pytest.param(
            lambda wll: run_table1(corpus="iscas85"), ValueError,
            id="run_table1-corpus=iscas85",
        ),
        *(
            pytest.param(
                lambda wll, m=m: importlib.import_module(m),
                ModuleNotFoundError,
                id=f"import-{m}",
            )
            for m in (
                "repro.experiments.arms_race",
                "repro.experiments.scaling",
                "repro.attacks.sail",
                "repro.attacks.cycsat",
                "repro.attacks.fall",
                "repro.locking.cyclic",
                "repro.locking.ttlock",
                "repro.corpus.store",
            )
        ),
        *(
            pytest.param(
                lambda wll, m=m, n=n: getattr(importlib.import_module(m), n),
                AttributeError,
                id=f"{m}.{n}",
            )
            for m, n in (
                ("repro.experiments", "run_arms_race"),
                ("repro.experiments", "run_scaling_study"),
                ("repro.attacks", "sail_attack"),
                ("repro.attacks", "cycsat_attack"),
                ("repro.attacks", "fall_attack"),
                ("repro.locking", "lock_cyclic"),
                ("repro.locking", "lock_ttlock"),
            )
        ),
        *(
            pytest.param(
                lambda wll, n=n: run_attack(n, wll, IdealOracle(wll.original)),
                ValueError,
                id=f"run_attack-{n}",
            )
            for n in ("cycsat", "fall")
        ),
        pytest.param(
            lambda wll: Netlist("x", allow_cycles=True), TypeError,
            id="Netlist-allow_cycles",
        ),
        pytest.param(
            lambda wll: compile_engine(wll.locked).run_outputs(
                _words(wll), backend="numpy"
            ),
            TypeError,
            id="OpTapeEngine.run_outputs-backend",
        ),
        pytest.param(
            lambda wll: compile_engine(wll.locked).run_keyed(
                _data_inputs(wll), _words(wll)[: len(_data_inputs(wll))],
                list(wll.key_inputs),
                np.zeros((1, len(wll.key_inputs)), dtype=np.uint8),
                backend="numpy",
            ),
            TypeError,
            id="OpTapeEngine.run_keyed-backend",
        ),
        pytest.param(
            lambda wll: importlib.import_module("repro.telemetry.overhead"),
            ModuleNotFoundError,
            id="import-repro.telemetry.overhead",
        ),
        *(
            pytest.param(
                lambda wll, m=m, n=n: getattr(importlib.import_module(m), n),
                AttributeError,
                id=f"{m}.{n}",
            )
            for m, n in (
                ("repro.telemetry", "run_overhead_cli"),
                ("repro.sim", "words_for_assignment"),
            )
        ),
        pytest.param(
            lambda wll: _detects(wll, early_exit=True), TypeError,
            id="FaultSimulator.detects-early_exit",
        ),
        pytest.param(
            lambda wll: main(["chaos", "run", "--keep"]), SystemExit,
            id="cli-chaos-run---keep",
        ),
        pytest.param(
            lambda wll: importlib.import_module("repro.lint.cnf_rules"),
            ModuleNotFoundError,
            id="import-repro.lint.cnf_rules",
        ),
        *(
            pytest.param(
                lambda wll, n=n: getattr(importlib.import_module("repro.lint"), n),
                AttributeError,
                id=f"repro.lint.{n}",
            )
            for n in (
                "LintConfig", "Waiver", "DEFAULT_CONFIG", "CnfSubject",
                "lint_cnf", "lint_dimacs_path", "lint_locked",
                "merge_reports", "iter_catalog",
            )
        ),
        *(
            pytest.param(
                lambda wll, n=n: getattr(LintReport(), n), AttributeError,
                id=f"LintReport.{n}",
            )
            for n in ("extend", "to_json", "active")
        ),
        pytest.param(
            lambda wll: lint_netlist(wll.locked, config=None), TypeError,
            id="lint_netlist-config",
        ),
        pytest.param(
            lambda wll: lint_orap(None, config=None), TypeError,
            id="lint_orap-config",
        ),
        pytest.param(
            lambda wll: lint_path("x.bench", config=None), TypeError,
            id="lint_path-config",
        ),
        pytest.param(
            lambda wll: lint_paper_benchmarks(include_fixtures=False),
            TypeError,
            id="lint_paper_benchmarks-include_fixtures",
        ),
        pytest.param(
            lambda wll: lint_orap_chips(seed=7), TypeError,
            id="lint_orap_chips-seed",
        ),
        *(
            pytest.param(
                lambda wll, k=k: run_lint(list_rules=True, **{k: None}),
                TypeError,
                id=f"run_lint-{k}",
            )
            for k in ("show_info", "config")
        ),
        pytest.param(
            lambda wll: main(["lint", "--no-info"]), SystemExit,
            id="cli-lint---no-info",
        ),
        *(
            pytest.param(
                lambda wll, m=m, n=n: getattr(importlib.import_module(m), n),
                AttributeError,
                id=f"{m}.{n}",
            )
            for m, names in (
                ("repro.lint",
                 ("lint_bench_text", "lint_bench_path", "lint_verilog_path")),
                ("repro.corpus.frontend",
                 ("parse_bench_strict", "parse_verilog_strict",
                  "load_bench_streaming", "load_verilog_streaming",
                  "parse_path_recovering")),
            )
            for n in names
        ),
        *(
            pytest.param(
                lambda wll, r=r: importlib.import_module(
                    "repro.lint"
                ).get_rule(r),
                KeyError,
                id=f"get_rule-{r}",
            )
            for r in ("NL011", "NL012")
        ),
        pytest.param(
            lambda wll: importlib.import_module("repro.lint").NetlistSubject(
                wll.locked, bench_text=""
            ),
            TypeError,
            id="NetlistSubject-bench_text",
        ),
        pytest.param(
            lambda wll: importlib.import_module("repro.attacks.encoding"),
            ModuleNotFoundError,
            id="import-repro.attacks.encoding",
        ),
        *(
            pytest.param(
                lambda wll, m=m, n=n: getattr(importlib.import_module(m), n),
                AttributeError,
                id=f"{m}.{n}",
            )
            for m, n in (
                ("repro.sat", "CircuitEncoder"),
                ("repro.sat", "encode_netlist"),
                ("repro.sat", "build_miter"),
                ("repro.sat", "solve_circuit"),
                ("repro.attacks", "AIGEncoder"),
            )
        ),
        *(
            pytest.param(
                lambda wll, m=m, c=c, n=n: getattr(
                    getattr(importlib.import_module(m), c), n
                ),
                AttributeError,
                id=f"{c}.{n}",
            )
            for m, c, n in (
                ("repro.sat", "AIGEncoder", "bind_pi"),
                ("repro.lint", "NetlistSubject", "find_cycle"),
            )
        ),
        *(
            pytest.param(
                lambda wll, k=k: importlib.import_module(
                    "repro.synth"
                ).netlist_to_aig(wll.locked, **{k: None}),
                TypeError,
                id=f"netlist_to_aig-{k}",
            )
            for k in ("aig", "pi_lits")
        ),
    ]

    @pytest.mark.parametrize("call,error", CASES)
    def test_removed_spelling_fails(self, call, error, wll):
        with pytest.raises(error) as info:
            call(wll)
        if error is SystemExit:
            assert info.value.code == 2  # argparse: invalid subcommand
        if error is ValueError:
            assert "unknown" in str(info.value)  # an unknown name's error

    @pytest.mark.parametrize("suffix", [".cnf", ".dimacs"])
    def test_removed_lint_suffix_is_unsupported(self, suffix, tmp_path):
        p = tmp_path / f"f{suffix}"
        p.write_text("p cnf 2 1\n1 2 0\n")
        (diag,) = lint_path(p).diagnostics
        assert diag.rule_id == "IO001"
        assert f"unsupported file type {suffix!r}" in diag.message
