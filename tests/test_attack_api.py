"""The unified attack registry, config-unification shims and the
spellings removed in 1.2.0 and later."""

from __future__ import annotations

import dataclasses
import importlib

import pytest

import repro
from repro.__main__ import main
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
from repro.locking import WLLConfig, lock_weighted
from repro.netlist import Netlist
from repro.runtime.budget import Budget
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


class TestRemovedIn120:
    """Spellings removed in 1.2.0 and later fail the way an unknown
    spelling does, with no warning shim in between.  1.2.0 removed
    everything deprecated in 1.1.0: the job service and the lane, chunk
    and supervision no-op knobs.  1.3.0 removed the E6 arms race, the
    E8 scaling study and the SAIL attack, which served no paper
    artifact.  1.4.0 removed what 1.3.0 deprecated: CycSAT, FALL,
    cyclic locking, TTLock and ``Netlist(allow_cycles=)``.  1.5.0
    removed the corpus store and the download tier: a corpus circuit is
    read in place from its packaged fixture."""

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
    ]

    @pytest.mark.parametrize("call,error", CASES)
    def test_removed_spelling_fails(self, call, error, wll):
        with pytest.raises(error) as info:
            call(wll)
        if error is SystemExit:
            assert info.value.code == 2  # argparse: invalid subcommand
        if error is ValueError:
            assert "unknown" in str(info.value)  # an unknown name's error
