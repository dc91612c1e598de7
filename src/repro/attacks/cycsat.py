"""CycSAT (Zhou et al. [15]): breaking cyclic logic locking.

Cyclic locking defeats the plain SAT attack because its encoder assumes an
acyclic netlist (and a cyclic CNF admits spurious fixed points).  CycSAT's
insight is a *pre-analysis*: compute "no structural path" (NC) conditions
— key constraints guaranteeing every introduced loop is broken — add them
to the attack formula, and run the ordinary DIP loop on the now
well-defined circuit.

Here the NC condition is built exactly as published for acyclic-type
cyclic locking: enumerate the simple cycles of the locked netlist's
wire graph (networkx), and for each cycle add a clause requiring at least
one keyed feedback edge on it to be *inactive*.  Edge activity is a pure
key function for MUX-based cyclic locking, so the clauses are clauses
over key variables.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .. import telemetry
from ..locking import LockedCircuit
from ..netlist import Netlist
from ..runtime.budget import ResourceExhausted
from ..sat import CNF, ClauseTemplate, Solver
from .config import AttackConfig
from .oracle import Oracle
from .result import AttackResult, exhausted_result


@dataclass
class CycSATConfig(AttackConfig):
    """Knobs for :func:`cycsat_attack`."""

    max_iterations: int = 128
    max_cycles_enumerated: int = 2000


def no_cycle_clauses(
    locked: Netlist,
    feedback_muxes: Sequence[tuple[str, str, int]],
    key_vars: dict[str, int],
    max_cycles: int = 2000,
) -> list[list[int]]:
    """The NC condition: one clause per structural cycle.

    Each clause demands some feedback MUX on the cycle select its
    non-feedback input — for cycles with no keyed edge (shouldn't exist in
    MUX-based cyclic locking) an empty clause would be produced and the
    caller will see immediate UNSAT, which is the correct semantics.
    Needs networkx (the ``cyclic`` extra), imported here so that loading
    the attack suite does not pay for it.
    """
    import networkx as nx

    graph = nx.DiGraph()
    for g in locked.gates():
        for f in g.fanin:
            graph.add_edge(f, g.name)
    # which edges are keyed feedback edges, and the literal deactivating them
    deactivate: dict[tuple[str, str], int] = {}
    for mux, sel_key, fb_value in feedback_muxes:
        g = locked.gate(mux)
        fb_net = g.fanin[1 + fb_value]  # fanin = (sel, d0, d1)
        var = key_vars[sel_key]
        # edge is active when sel == fb_value; deactivating literal:
        deactivate[(fb_net, mux)] = var if fb_value == 0 else -var
    clauses: list[list[int]] = []
    for cycle in itertools.islice(
        nx.simple_cycles(graph), max_cycles
    ):
        edges = list(zip(cycle, cycle[1:] + cycle[:1]))
        lits = [deactivate[e] for e in edges if e in deactivate]
        clauses.append(lits)
    return clauses


def cycsat_attack(
    locked_circuit: LockedCircuit,
    oracle: Oracle,
    config: CycSATConfig | None = None,
) -> AttackResult:
    """Run CycSAT against a cyclically locked circuit.

    Args:
        locked_circuit: result of :func:`repro.locking.lock_cyclic` (its
            ``extra["feedback_muxes"]`` feeds the pre-analysis).
        oracle: correct-response provider.
    """
    config = config or CycSATConfig()
    locked = locked_circuit.locked
    key_inputs = locked_circuit.key_inputs
    feedback_muxes = locked_circuit.extra["feedback_muxes"]
    key_set = set(key_inputs)
    data_inputs = [i for i in locked.inputs if i not in key_set]

    # every copy below (two for the miter, two per DIP, one per DIP for
    # the final key) is stamped from one template
    template = ClauseTemplate(locked)
    cnf = CNF()
    x_vars = {name: cnf.new_var() for name in data_inputs}
    k1_vars = {name: cnf.new_var() for name in key_inputs}
    k2_vars = {name: cnf.new_var() for name in key_inputs}
    var1 = template.stamp(cnf, {**x_vars, **k1_vars})
    var2 = template.stamp(cnf, {**x_vars, **k2_vars})
    diffs = []
    for o in locked.outputs:
        va, vb = var1[o], var2[o]
        d = cnf.new_var()
        cnf.add_clause([-d, va, vb])
        cnf.add_clause([-d, -va, -vb])
        cnf.add_clause([d, -va, vb])
        cnf.add_clause([d, va, -vb])
        diffs.append(d)
    cnf.add_clause(diffs)

    # THE CycSAT step: the NC condition on both key copies
    for k_vars in (k1_vars, k2_vars):
        for clause in no_cycle_clauses(
            locked, feedback_muxes, k_vars, config.max_cycles_enumerated
        ):
            cnf.add_clause(clause)

    solver = Solver(cnf)
    io_log: list[tuple[dict[str, int], dict[str, int]]] = []
    start_queries = getattr(oracle, "n_queries", 0)

    def constrain(k_vars, dip, response) -> None:
        scratch = CNF()
        scratch.n_vars = solver.n_vars
        var_of = template.stamp(scratch, k_vars)
        solver.ensure_vars(scratch.n_vars)
        for clause in scratch.clauses:
            solver.add_clause(clause)
        for name, value in dip.items():
            v = var_of[name]
            solver.add_clause([v] if value else [-v])
        for name, value in response.items():
            v = var_of[name]
            solver.add_clause([v] if value else [-v])

    budget = config.budget
    try:
        while len(io_log) < config.max_iterations:
            if budget is not None:
                budget.check_deadline()
            with telemetry.span("attack.cycsat.iteration", dip=len(io_log)):
                res = solver.solve(budget=budget)
                if not res.sat:
                    break
                assert res.model is not None
                dip = {name: int(res.model[v]) for name, v in x_vars.items()}
                raw = oracle.query(dip)
                response = {o: int(bool(raw[o])) for o in locked.outputs}
                io_log.append((dip, response))
                constrain(k1_vars, dip, response)
                constrain(k2_vars, dip, response)
                telemetry.counter_add("attack.dips")
        else:
            return AttackResult(
                attack="cycsat",
                recovered_key=None,
                completed=False,
                iterations=len(io_log),
                oracle_queries=getattr(oracle, "n_queries", 0) - start_queries,
                status="budget",
                notes={"reason": "iteration budget exhausted"},
            )
    except ResourceExhausted as exc:
        return exhausted_result(
            "cycsat",
            exc,
            iterations=len(io_log),
            oracle_queries=getattr(oracle, "n_queries", 0) - start_queries,
        )

    # final key: NC condition + IO history on a single copy
    final = Solver()
    kv = {name: final.new_var() for name in key_inputs}
    for clause in no_cycle_clauses(
        locked, feedback_muxes, kv, config.max_cycles_enumerated
    ):
        final.add_clause(clause)
    for dip, response in io_log:
        scratch = CNF()
        scratch.n_vars = final.n_vars
        var_of = template.stamp(scratch, kv)
        final.ensure_vars(scratch.n_vars)
        for clause in scratch.clauses:
            final.add_clause(clause)
        for name, value in dip.items():
            v = var_of[name]
            final.add_clause([v] if value else [-v])
        for name, value in response.items():
            v = var_of[name]
            final.add_clause([v] if value else [-v])
    try:
        res = final.solve(budget=budget)
    except ResourceExhausted as exc:
        return exhausted_result(
            "cycsat",
            exc,
            iterations=len(io_log),
            oracle_queries=getattr(oracle, "n_queries", 0) - start_queries,
        )
    key = (
        {name: int(res.model[v]) for name, v in kv.items()}
        if res.sat
        else None
    )
    return AttackResult(
        attack="cycsat",
        recovered_key=key,
        completed=key is not None,
        iterations=len(io_log),
        oracle_queries=getattr(oracle, "n_queries", 0) - start_queries,
        notes={"nc_clauses": True},
    )
