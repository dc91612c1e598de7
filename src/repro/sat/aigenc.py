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
    a cone through it is first encoded.  Every PI must be added before
    the first AND node.
    """

    def __init__(self, solver: Solver) -> None:
        self.solver = solver
        self.aig = AIG()
        self._node_var: dict[int, int] = {}
        self._encoded: set[int] = set()
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
        while stack:
            n = stack.pop()
            if n in self._encoded or not aig.is_and(n):
                continue
            f0, f1 = aig.fanin0[n], aig.fanin1[n]
            pending = [
                m
                for m in (lit_node(f0), lit_node(f1))
                if aig.is_and(m) and m not in self._encoded
            ]
            if pending:
                stack.append(n)
                stack.extend(pending)
                continue
            y = self._node_var.get(n)
            if y is None:
                y = self.solver.new_var()
                self._node_var[n] = y
            s0 = self._leaf_literal(f0)
            s1 = self._leaf_literal(f1)
            self.solver.add_clause([-y, s0])
            self.solver.add_clause([-y, s1])
            self.solver.add_clause([y, -s0, -s1])
            self._encoded.add(n)

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
