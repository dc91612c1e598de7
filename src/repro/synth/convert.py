"""Netlist <-> AIG bridges."""

from __future__ import annotations

from typing import Mapping

from ..netlist import GateType, Netlist
from .aig import AIG, FALSE_LIT, TRUE_LIT, lit_not


def netlist_to_aig(netlist: Netlist) -> AIG:
    """Structurally hash a gate netlist into an AIG (the 'strash' step).

    The inputs become the AIG's PIs, in order, and the outputs its
    outputs; :func:`strash_netlist` builds the gates.
    """
    aig = AIG()
    lits = strash_netlist(aig, netlist, {i: aig.add_pi(i) for i in netlist.inputs})
    for o in netlist.outputs:
        aig.add_output(lits[o], o)
    return aig


def strash_netlist(
    aig: AIG, netlist: Netlist, input_lits: Mapping[str, int]
) -> dict[str, int]:
    """Add the gates of ``netlist`` to ``aig`` over one literal per input.

    Multi-input gates are decomposed into balanced binary trees; inverters
    and buffers become complement edges (zero cost), which already matches
    the paper's "number of gates without inverters" counting convention.
    Structural hashing merges a gate with any identical node already in
    ``aig`` and folds constant inputs.  Returns every net's literal.
    """
    lit_of = {name: input_lits[name] for name in netlist.inputs}
    for name in netlist.topological_order():
        g = netlist.gate(name)
        t = g.gtype
        if t is GateType.INPUT:
            continue
        if t is GateType.CONST0:
            lit_of[name] = FALSE_LIT
            continue
        if t is GateType.CONST1:
            lit_of[name] = TRUE_LIT
            continue
        fins = [lit_of[f] for f in g.fanin]
        if t is GateType.BUF:
            lit_of[name] = fins[0]
        elif t is GateType.NOT:
            lit_of[name] = lit_not(fins[0])
        elif t is GateType.AND:
            lit_of[name] = aig.add_and_multi(fins)
        elif t is GateType.NAND:
            lit_of[name] = lit_not(aig.add_and_multi(fins))
        elif t is GateType.OR:
            lit_of[name] = lit_not(
                aig.add_and_multi([lit_not(f) for f in fins])
            )
        elif t is GateType.NOR:
            lit_of[name] = aig.add_and_multi([lit_not(f) for f in fins])
        elif t is GateType.XOR:
            lit_of[name] = aig.add_xor_multi(fins)
        elif t is GateType.XNOR:
            lit_of[name] = lit_not(aig.add_xor_multi(fins))
        elif t is GateType.MUX:
            s, d0, d1 = fins
            lit_of[name] = aig.add_mux(s, d0, d1)
        else:  # pragma: no cover
            raise AssertionError(t)
    return lit_of


def aig_to_netlist(aig: AIG, name: str = "aig") -> Netlist:
    """Map an AIG back onto AND/NOT gates (for writers and round-trips)."""
    from .aig import lit_compl, lit_node

    nl = Netlist(name)
    net_of: dict[int, str] = {}
    nl.add_gate("const0", GateType.CONST0, ())
    net_of[0] = "const0"
    for node, pname in zip(aig.pis, aig.pi_names):
        nl.add_input(pname)
        net_of[node] = pname
    inverted: dict[int, str] = {}

    def net_for(literal: int) -> str:
        node = lit_node(literal)
        base = net_of[node]
        if not lit_compl(literal):
            return base
        if node not in inverted:
            inv = nl.fresh_name(f"{base}_n")
            nl.add_gate(inv, GateType.NOT, (base,))
            inverted[node] = inv
        return inverted[node]

    live = aig.live_mask()
    for n in range(len(aig.pis) + 1, aig.n_nodes):
        if not live[n]:
            continue
        a = net_for(aig.fanin0[n])
        b = net_for(aig.fanin1[n])
        out = f"and{n}"
        nl.add_gate(out, GateType.AND, (a, b))
        net_of[n] = out
    for literal, oname in zip(aig.outputs, aig.output_names):
        node = lit_node(literal)
        if node not in net_of:
            # output of a dead/constant branch
            net_of[node] = "const0"
        src = net_for(literal)
        if not nl.has_net(oname):
            nl.add_gate(oname, GateType.BUF, (src,))
        nl.add_output(oname)
    return nl
