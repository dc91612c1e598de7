"""And-Inverter Graph (AIG) with structural hashing.

The paper estimates area (gate count) and delay (logic levels) with ABC's
``strash -> refactor -> rewrite`` [27]; this package plays that role: both
the original and the protected netlist are normalized into optimized AIGs
so the *overhead ratio* is measured on equal footing.

Representation: literals are ints — node id shifted left once, LSB =
complement flag.  Node 0 is constant FALSE (literal 0 = false, 1 = true).
"""

from __future__ import annotations

from typing import Iterable

FALSE_LIT = 0
TRUE_LIT = 1


def lit(node: int, compl: bool = False) -> int:
    """Build a literal from a node id and complement flag."""
    return (node << 1) | int(compl)


def lit_node(literal: int) -> int:
    """Node id of a literal."""
    return literal >> 1


def lit_compl(literal: int) -> bool:
    """Complement flag of a literal."""
    return bool(literal & 1)


def lit_not(literal: int) -> int:
    """Complemented literal."""
    return literal ^ 1


class AIG:
    """Structurally hashed AIG.

    Nodes are stored as parallel fan-in literal lists; node 0 is the
    constant, nodes ``1..n_pis`` are primary inputs, the rest are ANDs.
    Node ids are topological: an AND's fan-ins have smaller ids.  Hot
    loops write the literal helpers inline (``>> 1``, ``& 1``, ``^ 1``).
    """

    def __init__(self) -> None:
        self.fanin0: list[int] = [FALSE_LIT]  # node 0: constant
        self.fanin1: list[int] = [FALSE_LIT]
        self.pis: list[int] = []  # node ids
        self.pi_names: list[str] = []
        self.outputs: list[int] = []  # literals
        self.output_names: list[str] = []
        self._hash: dict[tuple[int, int], int] = {}

    # ------------------------------------------------------------------ #
    @property
    def n_nodes(self) -> int:
        """Total node count (constant + PIs + ANDs)."""
        return len(self.fanin0)

    def is_pi(self, node: int) -> bool:
        """True for primary-input nodes."""
        return 1 <= node <= len(self.pis)

    def is_and(self, node: int) -> bool:
        """True for AND nodes."""
        return node > len(self.pis)

    def add_pi(self, name: str) -> int:
        """Add a primary input; returns its (positive) literal."""
        node = self.n_nodes
        if node != len(self.pis) + 1:
            raise ValueError("PIs must be added before AND nodes")
        self.fanin0.append(FALSE_LIT)
        self.fanin1.append(FALSE_LIT)
        self.pis.append(node)
        self.pi_names.append(name)
        return node << 1

    def add_and(self, a: int, b: int) -> int:
        """AND of two literals, with constant folding and strashing."""
        # normalize order
        if a > b:
            a, b = b, a
        # constant / trivial cases
        if a == FALSE_LIT:
            return FALSE_LIT
        if a == TRUE_LIT:
            return b
        if a == b:
            return a
        if a == b ^ 1:
            return FALSE_LIT
        key = (a, b)
        existing = self._hash.get(key)
        if existing is not None:
            return existing << 1
        node = len(self.fanin0)
        self.fanin0.append(a)
        self.fanin1.append(b)
        self._hash[key] = node
        return node << 1

    def add_or(self, a: int, b: int) -> int:
        """OR via De Morgan on AND."""
        return self.add_and(a ^ 1, b ^ 1) ^ 1

    def add_xor(self, a: int, b: int) -> int:
        # (a & !b) | (!a & b)
        """XOR of two literals (3 ANDs)."""
        t1 = self.add_and(a, b ^ 1)
        t2 = self.add_and(a ^ 1, b)
        return self.add_or(t1, t2)

    def add_mux(self, s: int, d0: int, d1: int) -> int:
        """2:1 multiplexer of literals."""
        t1 = self.add_and(s, d1)
        t2 = self.add_and(s ^ 1, d0)
        return self.add_or(t1, t2)

    def add_and_multi(self, literals: Iterable[int]) -> int:
        """Balanced AND tree over arbitrarily many literals."""
        lits = list(literals)
        if not lits:
            return TRUE_LIT
        while len(lits) > 1:
            nxt = []
            for i in range(0, len(lits) - 1, 2):
                nxt.append(self.add_and(lits[i], lits[i + 1]))
            if len(lits) % 2:
                nxt.append(lits[-1])
            lits = nxt
        return lits[0]

    def add_xor_multi(self, literals: Iterable[int]) -> int:
        """Balanced XOR tree over many literals."""
        lits = list(literals)
        if not lits:
            return FALSE_LIT
        while len(lits) > 1:
            nxt = []
            for i in range(0, len(lits) - 1, 2):
                nxt.append(self.add_xor(lits[i], lits[i + 1]))
            if len(lits) % 2:
                nxt.append(lits[-1])
            lits = nxt
        return lits[0]

    def add_output(self, literal: int, name: str) -> None:
        """Register an output literal under a name."""
        self.outputs.append(literal)
        self.output_names.append(name)

    # ------------------------------------------------------------------ #
    # metrics

    def live_mask(self) -> bytearray:
        """One byte per node: 1 for AND nodes reachable from the outputs.

        One reverse sweep suffices because fan-ins have smaller ids.
        """
        n_pis = len(self.pis)
        live = bytearray(len(self.fanin0))
        for o in self.outputs:
            live[o >> 1] = 1
        f0, f1 = self.fanin0, self.fanin1
        for n in range(len(live) - 1, n_pis, -1):
            if live[n]:
                live[f0[n] >> 1] = 1
                live[f1[n] >> 1] = 1
        live[: n_pis + 1] = bytes(n_pis + 1)
        return live

    def live_nodes(self) -> set[int]:
        """AND nodes reachable from the outputs."""
        return {n for n, v in enumerate(self.live_mask()) if v}

    def area(self) -> int:
        """Live AND-node count (the ABC ``print_stats`` 'and' figure)."""
        return self.live_mask().count(1)

    def _level_list(self) -> list[int]:
        lev = [0] * len(self.fanin0)
        f0, f1 = self.fanin0, self.fanin1
        for n in range(len(self.pis) + 1, len(lev)):
            a = lev[f0[n] >> 1]
            b = lev[f1[n] >> 1]
            lev[n] = (a if a > b else b) + 1
        return lev

    def levels(self) -> dict[int, int]:
        """AND-level of every node (PIs/const at 0)."""
        return dict(enumerate(self._level_list()))

    def depth(self) -> int:
        """Maximum level over the outputs (the delay estimate)."""
        if not self.outputs:
            return 0
        lev = self._level_list()
        return max(lev[o >> 1] for o in self.outputs)

    def evaluate(self, pi_values: dict[str, int]) -> dict[str, int]:
        """Reference evaluation for equivalence checks in tests."""
        val: dict[int, int] = {0: 0}
        for node, name in zip(self.pis, self.pi_names):
            val[node] = int(bool(pi_values[name]))
        for n in range(len(self.pis) + 1, self.n_nodes):
            a = self.fanin0[n]
            b = self.fanin1[n]
            va = val[lit_node(a)] ^ int(lit_compl(a))
            vb = val[lit_node(b)] ^ int(lit_compl(b))
            val[n] = va & vb
        out: dict[str, int] = {}
        for o, name in zip(self.outputs, self.output_names):
            out[name] = val[lit_node(o)] ^ int(lit_compl(o))
        return out
