"""Strashed-AIG CNF encoding: the SAT-attack miters and equivalence checks.

Naive per-copy Tseitin encoding makes the SAT attack's instances balloon:
every I/O constraint adds a full circuit copy even though its data inputs
are constants.  :class:`AIGEncoder` builds each copy into one
structurally-hashed AIG first — constants propagate, identical cones
merge — and only the residual AND cone is clause-encoded, with inputs
mapped onto caller-provided solver variables.  This is the standard
strash-based miter of combinational equivalence checking (Kuehlmann,
Paruthi, Krohm and Ganai, IEEE TCAD 2002), and how ABC-based attack
tools keep instances small.

An AND node gets one variable and three clauses, except where the AIG
spells a multiplexer: ``n = AND(¬p, ¬q)`` with ``p = AND(s, a)`` and
``q = AND(¬s, b)`` is ``¬ITE(s, a, b)``, and gets one variable defined
by the ITE's 6 clauses over ``s``, ``a`` and ``b`` — 4 when ``b = ¬a``,
i.e. every XOR/XNOR (Eén, Mishchenko and Sörensson, "Applying Logic
Synthesis for Speeding Up SAT", SAT 2007).  An XOR thus costs one
variable and 4 clauses instead of three variables and 9.  ``p`` and
``q`` need no variable of their own: nothing in ``n``'s definition
refers to them, and if a later cone does, it encodes them then with
their own AND clauses, which agree with ``n``'s because both are
definitions over the same ``s``, ``a`` and ``b``.  The pattern is only
taken while ``p`` and ``q`` are both unencoded; once either has a
variable, ``n`` gets the plain AND clauses over it.  Detection follows
the cone walk's stack order, so the encoding is deterministic.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from ..netlist import Netlist
from ..synth.aig import AIG, FALSE_LIT, TRUE_LIT, lit_compl, lit_node
from ..synth.convert import strash_netlist
from .solver import Solver


class AIGEncoder:
    """Incrementally encodes AIG cones into a solver.

    Each PI gets a solver variable when it is added, each AND node when
    a cone through it is first encoded (the AND pair under an ITE root
    only if some cone needs it on its own).  Every PI must be added
    before the first AND node.
    """

    def __init__(self, solver: Solver) -> None:
        self.solver = solver
        self.aig = AIG()
        #: node -> solver variable: every PI, and every AND once encoded
        self._node_var: dict[int, int] = {}
        self._const_var: int | None = None

    def fresh_pi(self, name: str) -> int:
        """Add an AIG PI with its own fresh solver variable."""
        lit = self.aig.add_pi(name)
        self._node_var[lit_node(lit)] = self.solver.new_var()
        return lit

    def pi_var(self, literal: int) -> int:
        """Solver variable backing an AIG PI literal."""
        return self._node_var[lit_node(literal)]

    def sat_literal(self, aig_literal: int) -> int:
        """Solver literal equivalent to an AIG literal (encoding the AND
        cone on demand)."""
        self._encode_cone(lit_node(aig_literal))
        return self._leaf_literal(aig_literal)

    def _encode_cone(self, root: int) -> None:
        stack = [root]
        aig = self.aig
        node_var = self._node_var
        add_clause = self.solver.add_clause
        while stack:
            n = stack.pop()
            if n in node_var or not aig.is_and(n):
                continue
            ite = self._ite_fanins(n)
            fanins = ite if ite is not None else (aig.fanin0[n], aig.fanin1[n])
            pending = [
                m
                for m in (lit_node(f) for f in fanins)
                if aig.is_and(m) and m not in node_var
            ]
            if pending:
                stack.append(n)
                # pushed in reverse so fanins are encoded in order, an
                # ITE's selector first: the attack matrix's proofs ran
                # faster that way than second fanin first
                # (docs/PERFORMANCE.md)
                stack.extend(reversed(pending))
                continue
            y = node_var[n] = self.solver.new_var()
            if ite is None:
                s0 = self._leaf_literal(fanins[0])
                s1 = self._leaf_literal(fanins[1])
                add_clause([-y, s0])
                add_clause([-y, s1])
                add_clause([y, -s0, -s1])
            else:
                # n = ¬ITE(s, a, b): -y is the ITE's value
                s, a, b = (self._leaf_literal(f) for f in ite)
                add_clause([-s, -a, -y])
                add_clause([-s, a, y])
                add_clause([s, -b, -y])
                add_clause([s, b, y])
                if b != -a:
                    add_clause([-a, -b, -y])
                    add_clause([a, b, y])

    def _ite_fanins(self, n: int) -> tuple[int, int, int] | None:
        """``(s, a, b)`` if AND node ``n`` is ``AND(¬p, ¬q)`` with
        ``p = AND(s, a)`` and ``q = AND(¬s, b)`` both unencoded ANDs,
        i.e. ``n = ¬ITE(s, a, b)``; else None."""
        aig = self.aig
        f0, f1 = aig.fanin0[n], aig.fanin1[n]
        if not (f0 & f1 & 1):
            return None
        p, q = f0 >> 1, f1 >> 1
        if not (aig.is_and(p) and aig.is_and(q)):
            return None
        if p in self._node_var or q in self._node_var:
            return None
        ps = (aig.fanin0[p], aig.fanin1[p])
        qs = (aig.fanin0[q], aig.fanin1[q])
        for i in (0, 1):
            for j in (0, 1):
                if ps[i] == qs[j] ^ 1:
                    return ps[i], ps[1 - i], qs[1 - j]
        return None

    def _leaf_literal(self, aig_literal: int) -> int:
        node = lit_node(aig_literal)
        if node == 0:
            if self._const_var is None:
                self._const_var = self.solver.new_var()
                self.solver.add_clause([-self._const_var])
            v = self._const_var
        else:
            v = self._node_var[node]
        return -v if lit_compl(aig_literal) else v

    # ------------------------------------------------------------------ #
    def encode_netlist(
        self,
        netlist: Netlist,
        shared_lits: Mapping[str, int],
        const_inputs: Mapping[str, int] | None = None,
    ) -> dict[str, int]:
        """Build the netlist over existing AIG literals.

        Args:
            shared_lits: input name -> AIG literal (shared PIs).
            const_inputs: input name -> constant bit (folded structurally);
                it wins over ``shared_lits``.

        Every input must be in one of the two mappings.  Returns output
        name -> AIG literal.
        """
        const_inputs = const_inputs or {}
        lit_of = {
            name: (TRUE_LIT if const_inputs[name] else FALSE_LIT)
            if name in const_inputs
            else shared_lits[name]
            for name in netlist.inputs
        }
        lit_of = strash_netlist(self.aig, netlist, lit_of)
        return {o: lit_of[o] for o in netlist.outputs}

    def assert_equals(self, aig_literal: int, value: int) -> None:
        """Clause: the AIG literal equals the given bit."""
        s = self.sat_literal(aig_literal)
        self.solver.add_clause([s] if value else [-s])

    def diff_literal(self, pairs: Sequence[tuple[int, int]]) -> int:
        """AIG literal that is true iff any pair of literals differs."""
        aig = self.aig
        any_diff = FALSE_LIT
        for la, lb in pairs:
            any_diff = aig.add_or(any_diff, aig.add_xor(la, lb))
        return any_diff
