"""AppSAT [11]: approximate SAT-based deobfuscation.

AppSAT interleaves the exact SAT-attack DIP loop with random-query probing:
every ``probe_period`` DIPs it extracts a candidate key and estimates its
error rate on random oracle queries.  If the error rate is at or below
``error_threshold`` the attack stops early and returns the approximate key.
Against point-function schemes (SARLock/Anti-SAT) this recovers a key that
is wrong on only a handful of inputs — an *approximate* deobfuscation,
which is exactly the published trade-off.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from .. import telemetry
from ..netlist import GateType, Netlist
from ..runtime.budget import ResourceExhausted
from ..sat import AIGEncoder, Solver
from .config import AttackConfig
from .oracle import Oracle
from .result import AttackResult, exhausted_result
from .satattack import extract_consistent_key


@dataclass
class AppSATConfig(AttackConfig):
    """Knobs for :func:`appsat_attack`."""

    max_iterations: int = 64
    probe_period: int = 4
    probe_queries: int = 32
    error_threshold: float = 0.0


def appsat_attack(
    locked: Netlist,
    key_inputs: Sequence[str],
    oracle: Oracle,
    config: AppSATConfig | None = None,
) -> AttackResult:
    """Run AppSAT.  ``notes["error_rate"]`` carries the final estimate."""
    config = config or AppSATConfig()
    rng = random.Random(config.seed)
    key_set = set(key_inputs)
    data_inputs = [i for i in locked.inputs if i not in key_set]

    solver = Solver()
    enc = AIGEncoder(solver)
    x_lits = {name: enc.fresh_pi(name) for name in data_inputs}
    k1_lits = {name: enc.fresh_pi(f"k1_{name}") for name in key_inputs}
    k2_lits = {name: enc.fresh_pi(f"k2_{name}") for name in key_inputs}
    out1 = enc.encode_netlist(locked, {**x_lits, **k1_lits})
    out2 = enc.encode_netlist(locked, {**x_lits, **k2_lits})
    diff = enc.diff_literal([(out1[o], out2[o]) for o in locked.outputs])
    solver.add_clause([enc.sat_literal(diff)])

    io_log: list[tuple[dict[str, int], dict[str, int]]] = []
    start_queries = getattr(oracle, "n_queries", 0)

    def add_io_constraint(dip, response) -> None:
        for k_lits in (k1_lits, k2_lits):
            outs = enc.encode_netlist(locked, dict(k_lits), const_inputs=dip)
            for o in locked.outputs:
                enc.assert_equals(outs[o], response[o])

    def estimate_error(key: dict[str, int]) -> float:
        wrong = 0
        fixed = locked.copy()
        for k, bit in key.items():
            fixed.replace_gate(k, GateType.CONST1 if bit else GateType.CONST0, ())
        for _ in range(config.probe_queries):
            pattern = {i: rng.randrange(2) for i in data_inputs}
            want = oracle.query(pattern)
            got = fixed.evaluate_outputs(pattern)
            if any(int(bool(want[o])) != got[o] for o in locked.outputs):
                wrong += 1
            io_log.append(
                (pattern, {o: int(bool(want[o])) for o in locked.outputs})
            )
        return wrong / config.probe_queries

    exact_unsat = False
    error_rate: float | None = None
    candidate: dict[str, int] | None = None
    iterations = 0
    budget = config.budget
    try:
        while iterations < config.max_iterations:
            if budget is not None:
                budget.check_deadline()
            with telemetry.span("attack.appsat.iteration", dip=iterations):
                res = solver.solve(budget=budget)
                if not res.sat:
                    exact_unsat = True
                    break
                assert res.model is not None
                dip = {
                    name: int(res.model[enc.pi_var(lit)])
                    for name, lit in x_lits.items()
                }
                raw = oracle.query(dip)
                response = {o: int(bool(raw[o])) for o in locked.outputs}
                io_log.append((dip, response))
                add_io_constraint(dip, response)
                iterations += 1
                telemetry.counter_add("attack.dips")
            if iterations % config.probe_period == 0:
                candidate = extract_consistent_key(
                    locked, key_inputs, io_log, budget=budget
                )
                if candidate is None:
                    continue
                error_rate = estimate_error(candidate)
                if error_rate <= config.error_threshold:
                    return AttackResult(
                        attack="appsat",
                        recovered_key=candidate,
                        completed=True,
                        iterations=iterations,
                        oracle_queries=getattr(oracle, "n_queries", 0)
                        - start_queries,
                        notes={"error_rate": error_rate, "early_exit": True},
                    )

        key = extract_consistent_key(locked, key_inputs, io_log, budget=budget)
    except ResourceExhausted as exc:
        return exhausted_result(
            "appsat",
            exc,
            iterations=iterations,
            oracle_queries=getattr(oracle, "n_queries", 0) - start_queries,
        )
    return AttackResult(
        attack="appsat",
        recovered_key=key,
        completed=exact_unsat or key is not None,
        iterations=iterations,
        oracle_queries=getattr(oracle, "n_queries", 0) - start_queries,
        notes={"error_rate": error_rate, "early_exit": False, "unsat": exact_unsat},
    )
