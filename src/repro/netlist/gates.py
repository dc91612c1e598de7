"""Gate primitives for the gate-level netlist IR.

The IR follows the ISCAS/ITC BENCH convention: a circuit is a set of named
nets, each net driven either by a primary input or by exactly one gate.
Gates may have arbitrary fan-in (where the function allows it); NOT/BUF are
strictly single-input.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import reduce
from typing import Sequence


class GateType(enum.Enum):
    """Supported combinational gate functions.

    ``INPUT`` marks a primary-input net (no fan-in).  ``CONST0``/``CONST1``
    are constant drivers.  All other types compute a Boolean function of
    their fan-in nets.
    """

    INPUT = "input"
    CONST0 = "const0"
    CONST1 = "const1"
    BUF = "buf"
    NOT = "not"
    AND = "and"
    NAND = "nand"
    OR = "or"
    NOR = "nor"
    XOR = "xor"
    XNOR = "xnor"
    MUX = "mux"  # fanin = (select, d0, d1): select ? d1 : d0

    @property
    def is_source(self) -> bool:
        """True for nets with no fan-in (inputs and constants)."""
        return self in (GateType.INPUT, GateType.CONST0, GateType.CONST1)

    @property
    def min_fanin(self) -> int:
        """Minimum legal fan-in for this gate type."""
        if self.is_source:
            return 0
        if self in (GateType.BUF, GateType.NOT):
            return 1
        if self is GateType.MUX:
            return 3
        return 2

    @property
    def max_fanin(self) -> int | None:
        """Maximum fan-in, or None when unbounded."""
        if self.is_source:
            return 0
        if self in (GateType.BUF, GateType.NOT):
            return 1
        if self is GateType.MUX:
            return 3
        return None

    @property
    def is_inverting(self) -> bool:
        """True when the gate's output is the complement of the
        corresponding non-inverting function (NAND vs AND etc.)."""
        return self in (GateType.NOT, GateType.NAND, GateType.NOR, GateType.XNOR)

    def base_type(self) -> "GateType":
        """The non-inverting counterpart (NAND -> AND, NOT -> BUF, ...)."""
        return _BASE_TYPE[self]


_BASE_TYPE = {
    GateType.INPUT: GateType.INPUT,
    GateType.CONST0: GateType.CONST0,
    GateType.CONST1: GateType.CONST1,
    GateType.BUF: GateType.BUF,
    GateType.NOT: GateType.BUF,
    GateType.AND: GateType.AND,
    GateType.NAND: GateType.AND,
    GateType.OR: GateType.OR,
    GateType.NOR: GateType.OR,
    GateType.XOR: GateType.XOR,
    GateType.XNOR: GateType.XOR,
    GateType.MUX: GateType.MUX,
}

#: gate types a BENCH file may contain (plus DFF, handled at sequential level)
BENCH_TYPES = {
    "AND": GateType.AND,
    "NAND": GateType.NAND,
    "OR": GateType.OR,
    "NOR": GateType.NOR,
    "XOR": GateType.XOR,
    "XNOR": GateType.XNOR,
    "NOT": GateType.NOT,
    "INV": GateType.NOT,
    "BUF": GateType.BUF,
    "BUFF": GateType.BUF,
    "MUX": GateType.MUX,
    "CONST0": GateType.CONST0,
    "CONST1": GateType.CONST1,
}


@dataclass
class Gate:
    """A single named net and the gate driving it.

    Attributes:
        name: the net's unique name within its netlist.
        gtype: the driving function.
        fanin: names of the nets feeding this gate, in order (order matters
            only for MUX).

    Treated as immutable once built: nothing assigns to a field after
    ``__post_init__``.  :class:`~repro.netlist.netlist.Netlist` relies on
    it: its mutators install a new ``Gate``, and ``Netlist.copy`` shares
    the source's gates.
    """

    name: str
    gtype: GateType
    fanin: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        self.fanin = tuple(self.fanin)
        n = len(self.fanin)
        if n < self.gtype.min_fanin:
            raise ValueError(
                f"gate {self.name!r} ({self.gtype.value}): fan-in {n} below "
                f"minimum {self.gtype.min_fanin}"
            )
        mx = self.gtype.max_fanin
        if mx is not None and n > mx:
            raise ValueError(
                f"gate {self.name!r} ({self.gtype.value}): fan-in {n} above "
                f"maximum {mx}"
            )

    def evaluate(self, values: Sequence[int]) -> int:
        """Evaluate this gate on scalar 0/1 fan-in values."""
        return evaluate_gate(self.gtype, values)


def evaluate_gate(gtype: GateType, values: Sequence[int]) -> int:
    """Evaluate a gate function on scalar 0/1 values.

    Raises ValueError for source types (INPUT has no defined function) and
    on arity mismatches.
    """
    if gtype is GateType.CONST0:
        return 0
    if gtype is GateType.CONST1:
        return 1
    if gtype is GateType.INPUT:
        raise ValueError("INPUT nets have no gate function to evaluate")
    vals = [int(bool(v)) for v in values]
    if gtype is GateType.BUF:
        (v,) = vals
        return v
    if gtype is GateType.NOT:
        (v,) = vals
        return 1 - v
    if gtype is GateType.MUX:
        sel, d0, d1 = vals
        return d1 if sel else d0
    if gtype in (GateType.AND, GateType.NAND):
        out = int(all(vals))
        return 1 - out if gtype is GateType.NAND else out
    if gtype in (GateType.OR, GateType.NOR):
        out = int(any(vals))
        return 1 - out if gtype is GateType.NOR else out
    if gtype in (GateType.XOR, GateType.XNOR):
        out = reduce(lambda a, b: a ^ b, vals)
        return 1 - out if gtype is GateType.XNOR else out
    raise ValueError(f"unknown gate type {gtype}")


def controlling_value(gtype: GateType) -> int | None:
    """The controlling input value of a gate, or None if it has none.

    A controlling value on any input determines the output regardless of
    the other inputs (0 for AND/NAND, 1 for OR/NOR).  XOR-class gates and
    single-input gates have no controlling value.
    """
    if gtype in (GateType.AND, GateType.NAND):
        return 0
    if gtype in (GateType.OR, GateType.NOR):
        return 1
    return None


def controlled_response(gtype: GateType) -> int | None:
    """Output value produced when a controlling value is present."""
    c = controlling_value(gtype)
    if c is None:
        return None
    out = c if gtype in (GateType.AND, GateType.OR) else 1 - c
    # AND with controlling 0 -> 0; OR with controlling 1 -> 1;
    # NAND -> 1; NOR -> 0.
    if gtype is GateType.AND:
        return 0
    if gtype is GateType.NAND:
        return 1
    if gtype is GateType.OR:
        return 1
    if gtype is GateType.NOR:
        return 0
    return out


def inversion_parity(gtype: GateType) -> int:
    """1 if the gate inverts (relative to its base type), else 0."""
    return 1 if gtype.is_inverting else 0
