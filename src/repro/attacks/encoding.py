"""AIG-backed CNF encoding helpers for the SAT-based attacks.

Naive per-copy Tseitin encoding makes the SAT attack's instances balloon:
every I/O constraint adds a full circuit copy even though its data inputs
are constants.  These helpers build each copy as a structurally-hashed AIG
first — constants propagate, identical cones merge — and only the residual
AND cone is clause-encoded, with key inputs mapped onto caller-provided
solver variables.  This mirrors how production attack tools (and ABC-based
CEC) keep instances small.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from ..netlist import GateType, Netlist
from ..sat import Solver
from ..synth.aig import AIG, FALSE_LIT, TRUE_LIT, lit_compl, lit_node


class AIGEncoder:
    """Incrementally encodes AIG cones into a solver.

    AIG nodes get solver variables lazily; PI nodes may be pre-bound to
    existing solver variables (shared data/key variables).
    """

    def __init__(self, solver: Solver) -> None:
        self.solver = solver
        self.aig = AIG()
        self._node_var: dict[int, int] = {}
        self._encoded: set[int] = set()
        self._const_var: int | None = None

    def bind_pi(self, name: str, solver_var: int) -> int:
        """Add an AIG PI bound to an existing solver variable; returns the
        AIG literal."""
        lit = self.aig.add_pi(name)
        self._node_var[lit_node(lit)] = solver_var
        return lit

    def fresh_pi(self, name: str) -> int:
        """Add an AIG PI with its own fresh solver variable."""
        lit = self.aig.add_pi(name)
        self._node_var[lit_node(lit)] = self.solver.new_var()
        return lit

    def pi_var(self, literal: int) -> int:
        """Solver variable backing an AIG PI literal."""
        return self._node_var[lit_node(literal)]

    def _false_var(self) -> int:
        if self._const_var is None:
            self._const_var = self.solver.new_var()
            self.solver.add_clause([-self._const_var])
        return self._const_var

    def sat_literal(self, aig_literal: int) -> int:
        """Solver literal equivalent to an AIG literal (encoding the AND
        cone on demand)."""
        self._encode_cone(lit_node(aig_literal))
        node = lit_node(aig_literal)
        if node == 0:
            v = self._false_var()
        else:
            v = self._node_var[node]
        return -v if lit_compl(aig_literal) else v

    def _encode_cone(self, root: int) -> None:
        stack = [root]
        aig = self.aig
        while stack:
            n = stack.pop()
            if n in self._encoded or not aig.is_and(n):
                continue
            f0, f1 = aig.fanin0[n], aig.fanin1[n]
            n0, n1 = lit_node(f0), lit_node(f1)
            ready = True
            for m in (n0, n1):
                if aig.is_and(m) and m not in self._encoded:
                    ready = False
            if not ready:
                stack.append(n)
                for m in (n0, n1):
                    if aig.is_and(m) and m not in self._encoded:
                        stack.append(m)
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
            v = self._false_var()
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
            const_inputs: input name -> constant bit (folded structurally).

        Returns output name -> AIG literal.  Inputs in neither mapping get
        fresh PIs with fresh solver variables.
        """
        const_inputs = const_inputs or {}
        lit_of: dict[str, int] = {}
        for name in netlist.inputs:
            if name in shared_lits:
                lit_of[name] = shared_lits[name]
            elif name in const_inputs:
                lit_of[name] = TRUE_LIT if const_inputs[name] else FALSE_LIT
            else:
                lit_of[name] = self.fresh_pi(f"{name}#{self.aig.n_nodes}")
        aig = self.aig
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
            from ..synth.aig import lit_not

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
