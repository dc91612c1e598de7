"""Double DIP [10]: SAT attack with 2-distinguishing input patterns.

A plain DIP is only guaranteed to eliminate *one* wrong key per oracle
query — the weakness SARLock-style compound locking engineers for.  A
**2-distinguishing input** (Shen & Zhou) is an ``X`` for which there exist
history-consistent keys ``K1 != K2`` whose outputs *agree with each other*
while a third consistent key ``K3`` disagrees::

    out(X, K1) == out(X, K2)  !=  out(X, K3),   K1 != K2

Whatever the oracle answers, at least one key falls; when the common
``K1/K2`` output is wrong, *both* fall — so against compound schemes
(e.g. SARLock + traditional locking) progress at least doubles on the
traditional component.  When no 2-DIP exists the attack falls back to
ordinary DIPs, so it terminates exactly like the plain SAT attack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .. import telemetry
from ..netlist import Netlist
from ..runtime.budget import ResourceExhausted
from ..sat import AIGEncoder, Solver
from ..synth.aig import lit_not
from .config import AttackConfig
from .oracle import Oracle
from .result import AttackResult, exhausted_result
from .satattack import extract_consistent_key


@dataclass
class DoubleDIPConfig(AttackConfig):
    """Knobs for :func:`doubledip_attack`."""
    max_iterations: int = 128


def doubledip_attack(
    locked: Netlist,
    key_inputs: Sequence[str],
    oracle: Oracle,
    config: DoubleDIPConfig | None = None,
) -> AttackResult:
    """Run the Double DIP attack."""
    config = config or DoubleDIPConfig()
    key_set = set(key_inputs)
    data_inputs = [i for i in locked.inputs if i not in key_set]

    solver = Solver()
    enc = AIGEncoder(solver)
    aig = enc.aig
    x_lits = {name: enc.fresh_pi(name) for name in data_inputs}
    kvecs = [
        {name: enc.fresh_pi(f"k{j}_{name}") for name in key_inputs}
        for j in range(3)
    ]
    outs = [
        enc.encode_netlist(locked, {**x_lits, **kv}) for kv in kvecs
    ]
    d12 = enc.diff_literal(
        [(outs[0][o], outs[1][o]) for o in locked.outputs]
    )
    d13 = enc.diff_literal(
        [(outs[0][o], outs[2][o]) for o in locked.outputs]
    )
    k12_diff = enc.diff_literal(
        [(kvecs[0][name], kvecs[1][name]) for name in key_inputs]
    )
    # strong (2-DIP): K1 != K2, out1 == out2, out1 != out3
    strong_aig = aig.add_and_multi([k12_diff, lit_not(d12), d13])
    strong = solver.new_var()
    s_lit = enc.sat_literal(strong_aig)
    solver.add_clause([-strong, s_lit])
    # weak fallback: plain DIP between copies 0 and 2
    weak = solver.new_var()
    solver.add_clause([-weak, enc.sat_literal(d13)])

    io_log: list[tuple[dict[str, int], dict[str, int]]] = []
    start_queries = getattr(oracle, "n_queries", 0)
    two_dips = 0
    one_dips = 0
    gave_up = False

    def add_io_constraint(dip, response) -> None:
        for kv in kvecs:
            outs_c = enc.encode_netlist(locked, dict(kv), const_inputs=dip)
            for o in locked.outputs:
                enc.assert_equals(outs_c[o], response[o])

    budget = config.budget
    try:
        while True:
            if budget is not None:
                budget.check_deadline()
            if len(io_log) >= config.max_iterations:
                gave_up = True
                break
            with telemetry.span(
                "attack.doubledip.iteration", dip=len(io_log)
            ) as sp:
                res = solver.solve(assumptions=[strong], budget=budget)
                used_strong = res.sat
                if not res.sat:
                    res = solver.solve(assumptions=[weak], budget=budget)
                    if not res.sat:
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
                telemetry.counter_add("attack.dips")
                sp.set(strong=used_strong)
                if used_strong:
                    two_dips += 1
                else:
                    one_dips += 1

        key = (
            None
            if gave_up
            else extract_consistent_key(locked, key_inputs, io_log, budget=budget)
        )
    except ResourceExhausted as exc:
        return exhausted_result(
            "doubledip",
            exc,
            iterations=len(io_log),
            oracle_queries=getattr(oracle, "n_queries", 0) - start_queries,
        )
    return AttackResult(
        attack="doubledip",
        recovered_key=key,
        completed=key is not None,
        iterations=len(io_log),
        oracle_queries=getattr(oracle, "n_queries", 0) - start_queries,
        notes={"two_dips": two_dips, "one_dips": one_dips, "gave_up": gave_up},
    )
