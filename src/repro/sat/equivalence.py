"""SAT-based combinational equivalence checking.

Used by tests to prove that a locked circuit with the correct key is
functionally identical to the original, and by the SAT attack to validate
candidate keys.
"""

from __future__ import annotations

from typing import Mapping

from ..netlist import Netlist, NetlistError
from ..synth.aig import FALSE_LIT
from .aigenc import AIGEncoder
from .solver import Solver


def check_equivalence(
    a: Netlist,
    b: Netlist,
    fixed_a: Mapping[str, int] | None = None,
    fixed_b: Mapping[str, int] | None = None,
) -> tuple[bool, dict[str, int] | None]:
    """Prove functional equivalence of two circuits (structural + SAT).

    ``fixed_a``/``fixed_b`` pin inputs of either circuit to constants (e.g.
    the locked circuit's key inputs); pinning a name that is not an input
    of its circuit raises :class:`~repro.netlist.NetlistError`.  Inputs
    not pinned and present in both circuits are shared; a remaining free
    input of only one circuit is left unconstrained (and will usually
    produce a counterexample).  Outputs are compared positionally.

    The miter is one :class:`~repro.sat.aigenc.AIGEncoder` over shared
    input nodes, so identical cones merge and constants propagate — for a
    correctly-keyed locked circuit most of the proof closes structurally.
    Any residual miter cone goes to the CDCL solver.

    Returns ``(equivalent, counterexample)`` where the counterexample maps
    every unpinned input of either circuit to its value when inequivalent.
    """
    if len(a.outputs) != len(b.outputs):
        raise ValueError("equivalence check requires equal output counts")
    fixed_a, fixed_b = dict(fixed_a or {}), dict(fixed_b or {})
    solver = Solver()
    enc = AIGEncoder(solver)
    # every PI goes in before the first AND node
    pis: dict[str, int] = {}
    for nl, fixed in ((a, fixed_a), (b, fixed_b)):
        stray = sorted(set(fixed).difference(nl.inputs))
        if stray:
            raise NetlistError(f"{nl.name}: pinned nets are not inputs: {stray}")
        for name in nl.inputs:
            if name not in fixed and name not in pis:
                pis[name] = enc.fresh_pi(name)
    out_a = enc.encode_netlist(a, pis, const_inputs=fixed_a)
    out_b = enc.encode_netlist(b, pis, const_inputs=fixed_b)
    diff = enc.diff_literal(
        [(out_a[oa], out_b[ob]) for oa, ob in zip(a.outputs, b.outputs)]
    )
    if diff == FALSE_LIT:
        return True, None  # closed structurally
    enc.assert_equals(diff, 1)
    result = solver.solve()
    if not result.sat:
        return True, None
    assert result.model is not None
    return False, {
        name: int(result.model[enc.pi_var(lit)]) for name, lit in pis.items()
    }


def prove_unlocks(
    original: Netlist,
    locked: Netlist,
    key: Mapping[str, int],
) -> bool:
    """True iff ``locked`` with ``key`` applied equals ``original``."""
    equivalent, _ = check_equivalence(original, locked, fixed_b=key)
    return equivalent
