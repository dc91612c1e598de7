"""Per-layer wrappers for the traced run.

Each layer is wrapped at the name its caller looks it up by: a module
attribute a harness imported with ``from ... import`` (the harness holds
its own reference, so patching the defining module alone would miss
it), a module attribute a caller imports lazily inside a function
(``run_atpg`` -> ``sattest.sat_generate``, ``lock_weighted`` ->
``fll.rank_nets_by_fault_impact``), or a method on its class.  A target
that no longer exists raises, so a moved layer fails the traced run
instead of silently recording nothing.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable

from spans import Tracer

#: attack names the matrix runs (one ``attacks.<name>`` layer each)
ATTACKS = (
    "sat",
    "appsat",
    "doubledip",
    "hillclimb",
    "sensitization",
    "sps",
    "removal",
    "bypass",
)

#: layers that must record at least one call on each workload
EXPECTED = {
    "table1": (
        "bench.build",
        "lint.preflight",
        "experiments.runner",
        "locking.rank",
        "locking.insert",
        "sim.corruption",
        "sim.compile",
        "synth.overhead",
    ),
    "table2": (
        "bench.build",
        "lint.preflight",
        "experiments.runner",
        "locking.rank",
        "locking.insert",
        "sim.compile",
        "atpg.run",
        "atpg.faultsim",
        "atpg.podem",
        "atpg.sat",
        "sat.solve",
    ),
    "attacks": (
        "bench.build",
        "orap.protect",
        "lint.preflight",
        "experiments.runner",
        "sat.solve",
    )
    + tuple(f"attacks.{name}" for name in ATTACKS),
}


def patch(target: str, make: Callable[[Any], Any]) -> None:
    """Replace ``module:attr`` or ``module:Class.attr`` with ``make(old)``."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    setattr(owner, attr, make(getattr(owner, attr)))


def _count_outcome(layer: str) -> Callable[..., None]:
    def count(tracer: Tracer, result: Any, *args: Any, **kwargs: Any) -> None:
        tracer.add(f"{layer}.{result.outcome.value}")

    return count


def _count_rank(tracer: Tracer, ranking: Any, *args: Any, **kwargs: Any) -> None:
    tracer.add("locking.rank.nets_scored", len(ranking))


def _count_insert(tracer: Tracer, locked: Any, *args: Any, **kwargs: Any) -> None:
    tracer.add("locking.insert.key_gates", len(locked.key_gate_nets))


def _count_corruption(
    tracer: Tracer, report: Any, *args: Any, **kwargs: Any
) -> None:
    tracer.add("sim.corruption.key_patterns", report.n_patterns * report.n_keys)


def _count_atpg(tracer: Tracer, report: Any, *args: Any, **kwargs: Any) -> None:
    tracer.add("atpg.run.faults", report.n_faults)
    tracer.add("atpg.run.random_detected", report.n_random_detected)


def _count_podem(tracer: Tracer, result: Any, *args: Any, **kwargs: Any) -> None:
    tracer.add("atpg.podem.backtracks", result.backtracks)
    tracer.add(f"atpg.podem.{result.outcome.value}")


def _wrap_faultsim(tracer: Tracer, run: Callable[..., Any]) -> Callable[..., Any]:
    def counted(self: Any, faults: Any, input_words: Any, n_patterns: int,
                budget: Any = None) -> Any:
        faults = list(faults)
        tracer.add("atpg.faultsim.faults_simulated", len(faults))
        tracer.add("atpg.faultsim.fault_patterns", len(faults) * n_patterns)
        return run(self, faults, input_words, n_patterns, budget=budget)

    return tracer.wrap("atpg.faultsim", counted)


def _wrap_solve(tracer: Tracer, solve: Callable[..., Any]) -> Callable[..., Any]:
    # counted in ``finally``: conflict-budget aborts raise out of solve
    def counted(self: Any, *args: Any, **kwargs: Any) -> Any:
        before = (
            self.stats_conflicts,
            self.stats_decisions,
            self.stats_propagations,
        )
        try:
            return solve(self, *args, **kwargs)
        finally:
            tracer.add("sat.conflicts", self.stats_conflicts - before[0])
            tracer.add("sat.decisions", self.stats_decisions - before[1])
            tracer.add("sat.propagations", self.stats_propagations - before[2])

    return tracer.wrap("sat.solve", counted)


def _wrap_compile(tracer: Tracer, compile_engine: Callable[..., Any]) -> Callable[..., Any]:
    from repro.sim import optape

    def counted(netlist: Any, cache: bool = True) -> Any:
        if cache and optape.netlist_fingerprint(netlist) in optape._engine_cache:
            tracer.add("sim.compile.cache_hits")
        return compile_engine(netlist, cache)

    return tracer.wrap("sim.compile", counted)


def _wrap_attack(tracer: Tracer, run_attack: Callable[..., Any]) -> Callable[..., Any]:
    # one layer per attack name, so the span name is chosen per call
    def count(tracer: Tracer, result: Any, name: str, *args: Any, **kwargs: Any) -> None:
        tracer.add(f"attacks.{name}.iterations", result.iterations)
        tracer.add(f"attacks.{name}.oracle_queries", result.oracle_queries)

    def traced(name: str, *args: Any, **kwargs: Any) -> Any:
        return tracer.wrap(f"attacks.{name}", run_attack, count)(name, *args, **kwargs)

    return traced


def install(tracer: Tracer) -> None:
    """Wrap every layer of the paper harnesses with ``tracer`` spans."""

    def timed(layer: str, count: Callable[..., None] | None = None):
        return lambda fn: tracer.wrap(layer, fn, count)

    # the attack workload's own input generation (worker.py looks both up
    # on the package at call time)
    patch("repro.bench:generate_sequential", timed("bench.build"))
    patch("repro.orap:protect", timed("orap.protect"))
    for module in ("table1", "table2"):
        patch(f"repro.experiments.{module}:build_paper_circuit", timed("bench.build"))
        patch(f"repro.experiments.{module}:lock_weighted",
              timed("locking.insert", _count_insert))
    patch("repro.orap.scheme:lock_weighted", timed("locking.insert", _count_insert))
    patch("repro.locking.fll:rank_nets_by_fault_impact",
          timed("locking.rank", _count_rank))
    patch("repro.experiments.table1:measure_corruption",
          timed("sim.corruption", _count_corruption))
    patch("repro.experiments.table1:measure_overhead", timed("synth.overhead"))
    for module in ("repro.sim.optape", "repro.sim.metrics", "repro.atpg.faultsim"):
        patch(f"{module}:compile_engine", lambda fn: _wrap_compile(tracer, fn))
    patch("repro.experiments.table2:run_atpg", timed("atpg.run", _count_atpg))
    patch("repro.atpg.faultsim:FaultSimulator.run", lambda fn: _wrap_faultsim(tracer, fn))
    patch("repro.atpg.podem:PODEM.generate", timed("atpg.podem", _count_podem))
    patch("repro.atpg.sattest:sat_generate", timed("atpg.sat", _count_outcome("atpg.sat")))
    patch("repro.sat.solver:Solver.solve", lambda fn: _wrap_solve(tracer, fn))
    patch("repro.experiments.attack_matrix:run_attack", lambda fn: _wrap_attack(tracer, fn))
    patch("repro.lint:lint_orap", timed("lint.preflight"))
    patch("repro.experiments.runner:ExperimentRunner._run_preflight",
          timed("lint.preflight"))
    patch("repro.experiments.runner:ExperimentRunner.run_rows",
          timed("experiments.runner"))
    patch("repro.experiments.runner:ExperimentRunner.run_row",
          timed("experiments.runner"))
    # the row's own compute: charged to unattributed time, not the runner
    patch("repro.experiments.runner:run_with_retry", timed("experiments.compute"))
