"""SAT-based exact test generation / redundancy proof.

:func:`sat_generate` builds the fanout-cone miter of Larrabee, *Test
Pattern Generation Using Boolean Satisfiability* (IEEE TCAD 1992), and
gives an exact answer for any single stuck-at fault:

* the good machine is encoded over the fanin cone of the outputs the
  fault site can reach;
* only the site's fanout cone gets faulty variables, every other net
  shares its good variable, and XORs go only on the reachable outputs;
* activation (the good site value opposes the stuck value) and the
  active-path "D-chain" clauses (an active net differs between the
  machines and, unless it is an output, has an active fanout) hold for
  every test, so they prune the search without changing the verdict.

The formula is satisfiable iff some input vector detects the fault, and
the model is that test.  Used by the ATPG engine to arbitrate PODEM's
REDUNDANT/ABORTED outcomes — the classification Table II reports must be
exact.  :func:`inject_fault` builds a whole faulty netlist: the defective
core of :func:`~repro.atpg.test_program.chip_with_defect`, and the
structural reference the fault-simulator tests compare against.
"""

from __future__ import annotations

from .. import telemetry
from ..netlist import GateType, Netlist
from ..runtime.budget import Budget, BudgetExhausted
from ..sat import CNF, Solver, encode_gate
from .faults import Fault
from .podem import TestOutcome, TestResult


def inject_fault(netlist: Netlist, fault: Fault) -> Netlist:
    """Return a copy of the netlist with the fault structurally applied."""
    faulty = netlist.copy(f"{netlist.name}_faulty")
    const = GateType.CONST1 if fault.stuck_at else GateType.CONST0
    if fault.pin is None:
        g = faulty.gate(fault.gate)
        if g.gtype is GateType.INPUT:
            # stuck input pin of the whole circuit: keep the input net as an
            # interface pin but drive consumers from a stuck alias
            alias = faulty.fresh_name(f"{fault.gate}_stuck_")
            faulty.add_gate(alias, const, ())
            for other in list(faulty.gates()):
                if other.name == alias:
                    continue
                if fault.gate in other.fanin:
                    faulty.replace_gate(
                        other.name,
                        other.gtype,
                        tuple(
                            alias if f == fault.gate else f for f in other.fanin
                        ),
                    )
            faulty.set_outputs(
                [alias if o == fault.gate else o for o in faulty.outputs]
            )
        else:
            faulty.replace_gate(fault.gate, const, ())
    else:
        g = faulty.gate(fault.gate)
        stuck_net = faulty.fresh_name(f"{fault.gate}_pin{fault.pin}_stuck_")
        faulty.add_gate(stuck_net, const, ())
        fanin = list(g.fanin)
        fanin[fault.pin] = stuck_net
        faulty.replace_gate(fault.gate, g.gtype, tuple(fanin))
    return faulty


def _larrabee_miter(
    netlist: Netlist, fault: Fault
) -> tuple[CNF, dict[str, int], int]:
    """Fanout-cone miter of one fault (Larrabee, IEEE TCAD 1992).

    Returns the CNF, the good-machine variable of every primary input in
    the encoded cone, and the number of faulty nets.  The formula is
    satisfiable exactly when some input vector detects ``fault``.
    """
    root = fault.gate
    tfo = netlist.transitive_fanout([root])
    outs = [o for o in netlist.outputs if o in tfo]
    out_set = set(outs)
    # fanin cone of the observed outputs (plus the root, which covers the
    # site net and keeps the formula closed when no output is reachable)
    good_nets = netlist.transitive_fanin([*outs, root])
    order = [n for n in netlist.topological_order() if n in good_nets]
    faulty_order = [n for n in order if n in tfo]

    cnf = CNF()
    good = {n: cnf.new_var() for n in order}
    bad = dict(good)  # nets outside the fanout cone share the good variable
    for n in faulty_order:
        bad[n] = cnf.new_var()
    for n in order:
        g = netlist.gate(n)
        encode_gate(cnf, g.gtype, good[n], [good[f] for f in g.fanin])

    stuck = fault.stuck_at
    for n in faulty_order:
        g = netlist.gate(n)
        if n != root:
            encode_gate(cnf, g.gtype, bad[n], [bad[f] for f in g.fanin])
        elif fault.pin is None:
            cnf.add_clause([bad[n] if stuck else -bad[n]])
        else:
            const = cnf.new_var()
            cnf.add_clause([const if stuck else -const])
            fins = [bad[f] for f in g.fanin]
            fins[fault.pin] = const
            encode_gate(cnf, g.gtype, bad[n], fins)

    # activation: the good site value opposes the stuck value
    site = good[fault.site_net(netlist)]
    cnf.add_clause([-site if stuck else site])
    # D-chain: an active net differs between the machines and, unless it
    # is an output, passes the difference on to an active fanout
    fanout = netlist.fanout_map()
    act = {n: cnf.new_var() for n in faulty_order}
    for n in faulty_order:
        a = act[n]
        cnf.add_clause([-a, good[n], bad[n]])
        cnf.add_clause([-a, -good[n], -bad[n]])
        if n not in out_set:
            cnf.add_clause([-a] + [act[m] for m in fanout[n] if m in act])
    cnf.add_clause([act[root]])

    # observation: some reachable output differs (the empty clause when
    # none is reachable, so the solver proves the fault redundant)
    diffs = []
    for o in outs:
        d = cnf.new_var()
        encode_gate(cnf, GateType.XOR, d, [good[o], bad[o]])
        diffs.append(d)
    cnf.add_clause(diffs)
    in_vars = {n: good[n] for n in netlist.inputs if n in good}
    return cnf, in_vars, len(faulty_order)


def sat_generate(
    netlist: Netlist,
    fault: Fault,
    conflict_budget: int | None = 3000,
    budget: Budget | None = None,
) -> TestResult:
    """Exact single-fault test generation via SAT.

    Returns DETECTED with a pattern (inputs outside the fault's cone set
    to 0), REDUNDANT on UNSAT, or ABORTED when the per-call conflict
    budget runs out.  ``budget`` (if given) is a shared
    :class:`~repro.runtime.Budget` charged for every conflict; its
    violations (including deadline expiry) propagate to the caller
    instead of being folded into ABORTED.
    """
    with telemetry.span("atpg.sat", fault=fault.describe()) as sp:
        cnf, in_vars, n_faulty = _larrabee_miter(netlist, fault)
        sp.set(faulty_nets=n_faulty)
        solver = Solver(cnf)
        try:
            res = solver.solve(conflict_budget=conflict_budget, budget=budget)
        except BudgetExhausted:
            if budget is not None and budget.exhausted():
                raise  # shared budget violation belongs to the caller
            result = TestResult(TestOutcome.ABORTED, None, 0)
        else:
            if not res.sat:
                result = TestResult(TestOutcome.REDUNDANT, None, 0)
            else:
                assert res.model is not None
                pattern = {
                    n: int(res.model[in_vars[n]]) if n in in_vars else 0
                    for n in netlist.inputs
                }
                result = TestResult(TestOutcome.DETECTED, pattern, 0)
        finally:
            sp.set(conflicts=solver.stats_conflicts)
        sp.set(outcome=result.outcome.value)
        return result
