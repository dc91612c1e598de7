"""Tseitin encoding of netlists into CNF.

:class:`CircuitEncoder` maintains a shared :class:`~repro.sat.cnf.CNF` and a
per-instance variable map, so several circuit copies (the two keyed copies
of a SAT-attack miter, unrolled oracle constraints, ...) can share input
variables while keeping distinct internal variables.  Its per-gate
clauses come from :func:`encode_gate`, the one gate-to-CNF table, which
partial encodings (the fanout-cone miter of SAT-ATPG) call directly.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from ..netlist import GateType, Netlist
from .cnf import CNF


class CircuitEncoder:
    """Encodes one netlist instance into a shared CNF.

    Args:
        cnf: formula to append to (created if omitted).
        netlist: circuit to encode.
        prefix: namespace tag used only for diagnostics.
        share: mapping from net name to an existing CNF variable; these nets
            reuse the given variables instead of fresh ones (typically the
            primary/key inputs shared across copies).
    """

    def __init__(
        self,
        netlist: Netlist,
        cnf: CNF | None = None,
        share: Mapping[str, int] | None = None,
        prefix: str = "",
    ) -> None:
        self.netlist = netlist
        self.cnf = cnf if cnf is not None else CNF()
        self.prefix = prefix
        self.var_of: dict[str, int] = dict(share or {})
        self._encode()

    def var(self, net: str) -> int:
        """CNF variable carrying the value of ``net``."""
        return self.var_of[net]

    def output_vars(self) -> list[int]:
        """CNF variables of the netlist outputs, in order."""
        return [self.var_of[o] for o in self.netlist.outputs]

    def _fresh(self, net: str) -> int:
        v = self.cnf.new_var()
        self.var_of[net] = v
        return v

    def _encode(self) -> None:
        # two-pass encoding: allocate every net's variable first, then add
        # the per-gate constraints.  Constraints are local, so no
        # topological order is required — cyclically locked netlists
        # (repro.locking.cyclic) encode just as well, which is exactly the
        # fixed-point semantics CycSAT reasons about.
        order = self.netlist.topological_order()
        for name in order:
            if name not in self.var_of:
                self._fresh(name)
        for name in order:
            gate = self.netlist.gate(name)
            encode_gate(
                self.cnf,
                gate.gtype,
                self.var_of[name],
                [self.var_of[f] for f in gate.fanin],
            )


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


def encode_netlist(
    netlist: Netlist,
    cnf: CNF | None = None,
    share: Mapping[str, int] | None = None,
) -> CircuitEncoder:
    """Convenience constructor mirroring :class:`CircuitEncoder`."""
    return CircuitEncoder(netlist, cnf=cnf, share=share)
