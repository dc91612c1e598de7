"""Gate-level Tseitin encoding of netlists into CNF.

A :class:`ClauseTemplate` encodes a netlist once and stamps copies of it
into a shared :class:`~repro.sat.cnf.CNF`: each copy may share input
variables with earlier ones while keeping distinct internal variables.
A copy that differs from an earlier one only below some root nets (the
sensitization and bypass miters) is stamped with
:meth:`ClauseTemplate.stamp_cone`: it shares every net outside the roots'
fanout cone.  The per-gate clauses come from :func:`encode_gate`, the one
gate-to-CNF table, which partial encodings (the fanout-cone miter of
SAT-ATPG) call directly.  The SAT-attack miters and equivalence checks
strash into an AIG instead (:mod:`repro.sat.aigenc`).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from ..netlist import GateType, Netlist
from .cnf import CNF


class ClauseTemplate:
    """A netlist's Tseitin clauses, encoded once and stamped per copy.

    The clauses are built through :func:`encode_gate` over local ids:
    nets in topological order take ``1..len(order)``, then the XOR-chain
    auxiliaries follow in the order they are created.  :meth:`stamp`
    maps those ids onto a target CNF, so every copy costs one remap
    instead of a gate-by-gate encoding.
    """

    def __init__(self, netlist: Netlist) -> None:
        self.netlist = netlist
        self.nets = tuple(netlist.topological_order())
        self._local = local = {name: i for i, name in enumerate(self.nets, 1)}
        scratch = CNF(n_vars=len(self.nets))
        # net i's clauses are clauses[clause_end[i-1]:clause_end[i]] and
        # its auxiliaries aux_end[i-1]+1..aux_end[i] (local ids)
        self._clause_end = [0]
        self._aux_end = [scratch.n_vars]
        for name in self.nets:
            gate = netlist.gate(name)
            encode_gate(
                scratch, gate.gtype, local[name], [local[f] for f in gate.fanin]
            )
            self._clause_end.append(len(scratch.clauses))
            self._aux_end.append(scratch.n_vars)
        self.n_aux = scratch.n_vars - len(self.nets)
        self.clauses = scratch.clauses
        self._cones: dict[frozenset[str], tuple[list[int], list[str]]] = {}

    def stamp(
        self, cnf: CNF, share: Mapping[str, int] | None = None
    ) -> dict[str, int]:
        """Append one copy to ``cnf``; returns its net-to-variable map.

        Each net not in ``share`` gets a fresh variable, in topological
        order; the auxiliaries come next, then the clauses.  That is the
        numbering and clause order of a gate-by-gate encoding.  Shared
        variables must already be allocated in ``cnf``.
        """
        var_of = dict(share or {})
        top = cnf.n_vars
        mapped = []
        for name in self.nets:
            v = var_of.get(name)
            if v is None:
                v = var_of[name] = cnf.new_var()
            elif not 0 < abs(v) <= top:
                raise ValueError(
                    f"shared variable {v} of net {name!r} is not allocated "
                    f"in the CNF ({top} variables)"
                )
            mapped.append(int(v))
        first_aux = cnf.n_vars + 1
        cnf.n_vars += self.n_aux
        mapped.extend(range(first_aux, cnf.n_vars + 1))
        # lut[lit] for positive local literals, lut[-lit] (Python's
        # negative indexing) for negative ones
        lut = [0, *mapped, *[-v for v in reversed(mapped)]]
        get = lut.__getitem__
        cnf.clauses.extend([tuple(map(get, c)) for c in self.clauses])
        return var_of

    def _cone(self, roots: Iterable[str]) -> tuple[list[int], list[str]]:
        """Local ids of the fanout cone of ``roots`` (roots included), in
        topological order, and the outputs inside it, in output order.
        Computed on first use and kept per root set."""
        key = frozenset(roots)
        hit = self._cones.get(key)
        if hit is None:
            cone = self.netlist.transitive_fanout(key)
            ids = sorted(self._local[n] for n in cone)
            outs = [o for o in self.netlist.outputs if o in cone]
            hit = self._cones[key] = (ids, outs)
        return hit

    def cone_outputs(self, roots: Iterable[str]) -> list[str]:
        """Outputs in the fanout cone of ``roots``: the only outputs a
        :meth:`stamp_cone` copy over these roots can drive differently
        from its base copy."""
        return self._cone(roots)[1]

    def stamp_cone(
        self, cnf: CNF, base: Mapping[str, int], roots: Mapping[str, int]
    ) -> dict[str, int]:
        """Append a copy that differs from ``base`` only below ``roots``.

        ``base`` is the net-to-variable map of a copy already stamped
        into ``cnf``; ``roots`` gives new variables (already allocated)
        to some of its nets.  Every net outside the fanout cone of the
        roots keeps its ``base`` variable; every other net of the cone
        gets a fresh variable, in topological order, then the cone's
        auxiliaries, then the clauses of the cone's gates only.  The
        roots are cut points: their own gates add no clause.  Returns
        the copy's net-to-variable map.
        """
        top = cnf.n_vars
        for name, v in roots.items():
            if not 0 < abs(v) <= top:
                raise ValueError(
                    f"root variable {v} of net {name!r} is not allocated "
                    f"in the CNF ({top} variables)"
                )
        cone, _ = self._cone(roots)
        nets, local = self.nets, self._local
        lut = [0] * (len(nets) + self.n_aux + 1)
        for name, v in base.items():
            lut[local[name]] = v
        var_of = dict(base)
        for name, v in roots.items():
            lut[local[name]] = var_of[name] = int(v)
        gates = [i for i in cone if nets[i - 1] not in roots]
        for i in gates:
            lut[i] = var_of[nets[i - 1]] = cnf.new_var()
        aux_end = self._aux_end
        for i in gates:
            for a in range(aux_end[i - 1] + 1, aux_end[i] + 1):
                lut[a] = cnf.new_var()
        lut.extend(-v for v in reversed(lut[1:]))
        get = lut.__getitem__
        clauses, ends = self.clauses, self._clause_end
        for i in gates:
            cnf.clauses.extend(
                [tuple(map(get, c)) for c in clauses[ends[i - 1] : ends[i]]]
            )
        return var_of


def encode_gate(cnf: CNF, gtype: GateType, out: int, fins: Sequence[int]) -> None:
    """Add the Tseitin clauses of ``out <-> gtype(fins)`` to ``cnf``.

    ``out`` and ``fins`` are DIMACS literals, so a negative fan-in literal
    encodes an inverted pin.  ``INPUT`` adds nothing: its variable stays
    free.
    """
    t = gtype
    if t is GateType.INPUT:
        return
    if t is GateType.CONST0:
        cnf.add_clause([-out])
    elif t is GateType.CONST1:
        cnf.add_clause([out])
    elif t is GateType.BUF:
        _encode_equal(cnf, out, fins[0])
    elif t is GateType.NOT:
        _encode_equal(cnf, out, -fins[0])
    elif t in (GateType.AND, GateType.NAND):
        y = out if t is GateType.AND else -out
        _encode_and(cnf, y, fins)
    elif t in (GateType.OR, GateType.NOR):
        y = out if t is GateType.OR else -out
        _encode_and(cnf, -y, [-f for f in fins])
    elif t in (GateType.XOR, GateType.XNOR):
        _encode_xor_chain(cnf, out, fins, invert=t is GateType.XNOR)
    elif t is GateType.MUX:
        s, d0, d1 = fins
        # out = s ? d1 : d0
        cnf.add_clause([s, -d0, out])
        cnf.add_clause([s, d0, -out])
        cnf.add_clause([-s, -d1, out])
        cnf.add_clause([-s, d1, -out])
    else:  # pragma: no cover - exhaustive above
        raise AssertionError(t)


def _encode_xor_chain(
    cnf: CNF, out: int, fins: Sequence[int], invert: bool
) -> None:
    """n-ary XOR via a chain of 2-input XOR constraints."""
    acc = fins[0]
    for f in fins[1:-1] if len(fins) > 1 else []:
        nxt = cnf.new_var()
        _encode_xor2(cnf, nxt, acc, f)
        acc = nxt
    if len(fins) == 1:
        _encode_equal(cnf, out, -acc if invert else acc)
    else:
        last = fins[-1]
        _encode_xor2(cnf, -out if invert else out, acc, last)


def _encode_equal(cnf: CNF, a: int, b: int) -> None:
    cnf.add_clause([-a, b])
    cnf.add_clause([a, -b])


def _encode_and(cnf: CNF, y: int, fins: Sequence[int]) -> None:
    """y <-> AND(fins); y may be a negative literal (for NAND/NOR duals)."""
    for f in fins:
        cnf.add_clause([-y, f])
    cnf.add_clause([y] + [-f for f in fins])


def _encode_xor2(cnf: CNF, y: int, a: int, b: int) -> None:
    """y <-> a XOR b (y may be negative)."""
    cnf.add_clause([-y, a, b])
    cnf.add_clause([-y, -a, -b])
    cnf.add_clause([y, -a, b])
    cnf.add_clause([y, a, -b])
