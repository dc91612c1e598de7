"""The unified attack registry, config-unification shims, the attacks
deprecated in release 1.3.0 and the spellings removed in 1.2.0 and
later."""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import warnings

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
from repro.experiments import RunPolicy
from repro.locking import WLLConfig, lock_cyclic, lock_ttlock, lock_weighted
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


@pytest.fixture(scope="module")
def cyclic(host):
    return lock_cyclic(host, n_feedbacks=3, rng=3)


#: registered attacks whose run_attack warns in 1.3.x (gone in 1.4.0)
DEPRECATED = ("cycsat", "fall")


class TestRegistry:
    def test_the_eight_headline_attacks_are_registered(self):
        names = set(list_attacks())
        assert {
            "sat",
            "appsat",
            "doubledip",
            "hillclimb",
            "sensitization",
            "fall",
            "sps",
            "cycsat",
        } <= names

    def test_unknown_name_lists_known_ones(self):
        with pytest.raises(ValueError, match="sat"):
            run_attack("nope", None)

    def test_specs_carry_config_types(self):
        assert get_attack("sat").config_type is SATAttackConfig
        assert get_attack("fall").config_type is None
        assert get_attack("cycsat").requires == ("feedback_muxes",)

    def test_round_trip_every_registered_attack(self, wll, cyclic):
        """Every registry entry runs end-to-end and returns a well-formed
        AttackResult on a small locked netlist."""
        for name in list_attacks():
            spec = get_attack(name)
            target = cyclic if "feedback_muxes" in spec.requires else wll
            oracle = IdealOracle(target.original) if spec.needs_oracle else None
            with (
                pytest.warns(DeprecationWarning, match="1.4.0")
                if name in DEPRECATED
                else contextlib.nullcontext()
            ):
                result = run_attack(name, target, oracle)
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

    def test_cycsat_demands_locked_circuit_metadata(self, wll):
        with pytest.raises(ValueError, match="feedback_muxes"):
            run_attack("cycsat", wll, IdealOracle(wll.original))

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
            run_attack("fall", wll, budget=Budget(wall_s=1.0))


class TestDeprecatedIn130:
    """``cycsat`` and ``fall`` serve no paper artifact: run_attack warns
    for them through 1.3.x, and 1.4.0 deletes them."""

    @staticmethod
    def _deprecations(call):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = call()
        return result, [
            w for w in caught if issubclass(w.category, DeprecationWarning)
        ]

    @pytest.mark.parametrize("name", DEPRECATED)
    def test_run_attack_warns_once_at_the_caller(self, name, wll, cyclic):
        target = cyclic if name == "cycsat" else wll
        oracle = IdealOracle(target.original) if name == "cycsat" else None
        _, caught = self._deprecations(
            lambda: run_attack(name, target, oracle)
        )
        assert len(caught) == 1
        assert name in str(caught[0].message)
        assert "1.4.0" in str(caught[0].message)
        assert caught[0].filename == __file__

    def test_registry_still_lists_every_attack(self):
        assert list_attacks() == (
            "appsat", "bypass", "cycsat", "doubledip", "fall",
            "hillclimb", "removal", "sat", "sensitization", "sps",
        )

    def test_cache_served_run_warns_too(self, host, tmp_path):
        from repro import cache as result_cache

        tt = lock_ttlock(host, key_width=6, rng=5)
        store = result_cache.configure(tmp_path / "cache")
        try:
            cold, cold_caught = self._deprecations(
                lambda: run_attack("fall", tt)
            )
            assert cold.status == "ok" and store.hits == 0
            warm, warm_caught = self._deprecations(
                lambda: run_attack("fall", tt)
            )
            assert store.hits == 1
            assert dataclasses.asdict(warm) == dataclasses.asdict(cold)
        finally:
            result_cache.disable()
        assert len(cold_caught) == len(warm_caught) == 1
        assert warm_caught[0].filename == __file__


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
    artifact."""

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
                lambda wll, m=m: importlib.import_module(m),
                ModuleNotFoundError,
                id=f"import-{m}",
            )
            for m in (
                "repro.experiments.arms_race",
                "repro.experiments.scaling",
                "repro.attacks.sail",
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
            )
        ),
    ]

    @pytest.mark.parametrize("call,error", CASES)
    def test_removed_spelling_fails(self, call, error, wll):
        with pytest.raises(error) as info:
            call(wll)
        if error is SystemExit:
            assert info.value.code == 2  # argparse: invalid subcommand
