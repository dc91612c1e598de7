"""The unified attack registry and config-unification shims."""

from __future__ import annotations

import dataclasses

import pytest

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
from repro.locking import WLLConfig, lock_cyclic, lock_weighted
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
