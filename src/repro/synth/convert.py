"""Netlist <-> AIG bridges."""

from __future__ import annotations

from ..netlist import GateType, Netlist
from .aig import AIG, FALSE_LIT, TRUE_LIT, lit_not


def netlist_to_aig(
    netlist: Netlist,
    aig: AIG | None = None,
    pi_lits: dict[str, int] | None = None,
) -> AIG:
    """Structurally hash a gate netlist into an AIG (the 'strash' step).

    Multi-input gates are decomposed into balanced binary trees; inverters
    and buffers become complement edges (zero cost), which already matches
    the paper's "number of gates without inverters" counting convention.

    Args:
        aig: encode into this existing AIG (shared-PI miters); fresh if None.
        pi_lits: existing literals for (some) inputs; missing inputs get
            fresh PIs.  The mapping is updated in place with any additions.

    Returns the AIG; this netlist's output literals are the last
    ``len(netlist.outputs)`` entries of ``aig.outputs``.
    """
    if aig is None:
        aig = AIG()
    lit_of: dict[str, int] = {}
    pi_lits = pi_lits if pi_lits is not None else {}
    for name in netlist.inputs:
        if name in pi_lits:
            lit_of[name] = pi_lits[name]
        else:
            lit_of[name] = aig.add_pi(name)
            pi_lits[name] = lit_of[name]
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
    for o in netlist.outputs:
        aig.add_output(lit_of[o], o)
    return aig


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
