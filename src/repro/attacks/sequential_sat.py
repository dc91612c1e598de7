"""Sequential (unrolled) SAT attack — the residual surface beyond OraP.

OraP removes the *scan* oracle, which is what the combinational SAT attack
needs.  An activated chip still computes: an attacker can drive primary
inputs and watch primary outputs in functional mode.  The sequential SAT
attack (the KC2/"unrolling" family) exploits exactly that: unroll the
locked sequential design ``T`` time-frames from the reset state, share the
key across frames, and search for a *distinguishing input sequence* (DIS)
instead of a DIP.

This module exists to quantify the paper's implicit trade: OraP converts a
cheap combinational attack into a sequential one whose formulas grow with
the unrolling depth and whose observability is throttled by the chip's
primary outputs — the benchmark shows iteration counts and instance sizes
climbing with depth where the scan-based attack needed a handful of DIPs.

Termination caveat (inherent to the method, documented in the literature):
UNSAT at depth ``T`` only proves key-indistinguishability over ``T``-cycle
behaviours; the attack increases the depth until ``max_depth`` and then
*verifies* the candidate on random functional sequences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..netlist import SequentialCircuit
from ..orap.chip import ProtectedChip
from ..runtime.budget import ResourceExhausted
from ..sat import AIGEncoder, Solver
from .config import AttackConfig
from .result import AttackResult, exhausted_result


class FunctionalOracle:
    """PI/PO-only oracle: the activated chip driven in functional mode.

    Each query resets and unlocks the chip, applies an input sequence,
    and returns the primary-output trace.  No scan access is used — this
    is the access OraP cannot (and does not claim to) remove.
    """

    def __init__(self, chip: ProtectedChip) -> None:
        self.chip = chip
        self.n_queries = 0

    def query_sequence(
        self, sequence: Sequence[dict[str, int]]
    ) -> list[dict[str, int]]:
        """Apply an input sequence from reset+unlock; return the PO trace."""
        self.n_queries += 1
        chip = self.chip
        chip.reset()
        chip.unlock()
        trace: list[dict[str, int]] = []
        for pi in sequence:
            # outputs are observed combinationally for the current state,
            # then the clock advances
            trace.append(chip.observe_outputs(pi))
            chip.functional_cycle(pi)
        return trace


@dataclass
class SequentialSATConfig(AttackConfig):
    """Knobs for :func:`sequential_sat_attack`."""

    max_iterations: int = 64
    depth: int = 6
    verify_sequences: int = 8
    verify_length: int = 12


def _unroll(
    enc: AIGEncoder,
    design: SequentialCircuit,
    key_lits: dict[str, int],
    pi_lits_per_frame: list[dict[str, int]],
    initial_state: dict[str, int],
) -> list[dict[str, int]]:
    """Unroll the locked core; returns per-frame PO literal maps.

    ``initial_state`` maps flop name -> AIG literal for the (unknown but
    deterministic) post-unlock state, shared by every hypothesis.
    """
    core = design.core
    q_of = {ff.q: ff for ff in design.flops}
    d_of = {ff.name: ff.d for ff in design.flops}
    state: dict[str, int] = dict(initial_state)
    po_frames: list[dict[str, int]] = []
    pos = design.primary_outputs
    for pi_lits in pi_lits_per_frame:
        shared: dict[str, int] = dict(key_lits)
        shared.update(pi_lits)
        for q, ff in q_of.items():
            shared[q] = state[ff.name]
        outs = enc.encode_netlist(core, shared)
        po_frames.append({o: outs[o] for o in pos})
        state = {name: outs[d] for name, d in d_of.items()}
    return po_frames


def sequential_sat_attack(
    design: SequentialCircuit,
    key_inputs: Sequence[str],
    oracle: FunctionalOracle,
    config: SequentialSATConfig | None = None,
) -> AttackResult:
    """Run the unrolling-based sequential SAT attack.

    Args:
        design: the locked *sequential* design (locked core + flops) as
            reverse-engineered from the layout.
        key_inputs: key inputs within the core.
        oracle: functional-mode access to an activated chip.
    """
    config = config or SequentialSATConfig()
    pis = [p for p in design.primary_inputs if p not in set(key_inputs)]
    pos = design.primary_outputs

    solver = Solver()
    enc = AIGEncoder(solver)
    key1 = {k: enc.fresh_pi(f"k1_{k}") for k in key_inputs}
    key2 = {k: enc.fresh_pi(f"k2_{k}") for k in key_inputs}
    # the post-unlock state is unknown to the attacker but repeatable
    # (deterministic unlock): model it as shared free variables
    s0 = {ff.name: enc.fresh_pi(f"s0_{ff.name}") for ff in design.flops}
    pi_frames: list[dict[str, int]] = []
    for t in range(config.depth):
        pi_frames.append({p: enc.fresh_pi(f"{p}@{t}") for p in pis})
    po1 = _unroll(enc, design, key1, pi_frames, s0)
    po2 = _unroll(enc, design, key2, pi_frames, s0)
    pairs = []
    for f1, f2 in zip(po1, po2):
        for o in pos:
            pairs.append((f1[o], f2[o]))
    diff = enc.diff_literal(pairs)
    solver.add_clause([enc.sat_literal(diff)])

    io_log: list[tuple[list[dict[str, int]], list[dict[str, int]]]] = []
    start_queries = oracle.n_queries

    def add_trace_constraint(
        sequence: list[dict[str, int]], trace: list[dict[str, int]]
    ) -> None:
        for key_lits in (key1, key2):
            const_frames = sequence
            state: dict[str, int] = dict(s0)
            q_of = {ff.q: ff for ff in design.flops}
            d_of = {ff.name: ff.d for ff in design.flops}
            for pi_vals, po_vals in zip(const_frames, trace):
                shared: dict[str, int] = dict(key_lits)
                for q, ff in q_of.items():
                    shared[q] = state[ff.name]
                outs = enc.encode_netlist(
                    design.core, shared, const_inputs=pi_vals
                )
                for o in pos:
                    enc.assert_equals(outs[o], po_vals[o])
                state = {name: outs[d] for name, d in d_of.items()}

    iterations = 0
    budget = config.budget
    try:
        while iterations < config.max_iterations:
            if budget is not None:
                budget.check_deadline()
            res = solver.solve(budget=budget)
            if not res.sat:
                break
            assert res.model is not None
            sequence = [
                {p: int(res.model[enc.pi_var(lit)]) for p, lit in frame.items()}
                for frame in pi_frames
            ]
            trace = oracle.query_sequence(sequence)
            trace = [
                {o: int(bool(frame[o])) for o in pos} for frame in trace
            ]
            io_log.append((sequence, trace))
            add_trace_constraint(sequence, trace)
            iterations += 1
    except ResourceExhausted as exc:
        return exhausted_result(
            "sequential_sat",
            exc,
            iterations=iterations,
            oracle_queries=oracle.n_queries - start_queries,
        )

    if iterations >= config.max_iterations:
        return AttackResult(
            attack="sequential_sat",
            recovered_key=None,
            completed=False,
            iterations=iterations,
            oracle_queries=oracle.n_queries - start_queries,
            status="budget",
            notes={"reason": "DIS budget exhausted", "depth": config.depth},
        )

    # extract a consistent key from the logged traces
    key_solver = Solver()
    kenc = AIGEncoder(key_solver)
    k_lits = {k: kenc.fresh_pi(k) for k in key_inputs}
    ks0 = {ff.name: kenc.fresh_pi(f"s0_{ff.name}") for ff in design.flops}
    q_of = {ff.q: ff for ff in design.flops}
    d_of = {ff.name: ff.d for ff in design.flops}
    for sequence, trace in io_log:
        state = dict(ks0)
        for pi_vals, po_vals in zip(sequence, trace):
            shared = dict(k_lits)
            for q, ff in q_of.items():
                shared[q] = state[ff.name]
            outs = kenc.encode_netlist(
                design.core, shared, const_inputs=pi_vals
            )
            for o in pos:
                kenc.assert_equals(outs[o], po_vals[o])
            state = {name: outs[d] for name, d in d_of.items()}
    try:
        res = key_solver.solve(budget=budget)
    except ResourceExhausted as exc:
        return exhausted_result(
            "sequential_sat",
            exc,
            iterations=iterations,
            oracle_queries=oracle.n_queries - start_queries,
        )
    if not res.sat:
        return AttackResult(
            attack="sequential_sat",
            recovered_key=None,
            completed=False,
            iterations=iterations,
            oracle_queries=oracle.n_queries - start_queries,
            notes={"reason": "inconsistent trace log"},
        )
    assert res.model is not None
    key = {k: int(res.model[kenc.pi_var(lit)]) for k, lit in k_lits.items()}
    s0_bits = {
        name: int(res.model[kenc.pi_var(lit)]) for name, lit in ks0.items()
    }

    # verification on random functional sequences (depth-bound caveat)
    import random

    rng = random.Random(config.seed)
    verified = True
    for _ in range(config.verify_sequences):
        sequence = [
            {p: rng.randrange(2) for p in pis}
            for _ in range(config.verify_length)
        ]
        want = oracle.query_sequence(sequence)
        state = dict(s0_bits)
        ok = True
        for pi_vals, po_vals in zip(sequence, want):
            asg = dict(pi_vals)
            asg.update(key)
            for ff in design.flops:
                asg[ff.q] = state[ff.name]
            values = design.core.evaluate(asg)
            if any(values[o] != int(bool(po_vals[o])) for o in pos):
                ok = False
                break
            state = {ff.name: values[ff.d] for ff in design.flops}
        if not ok:
            verified = False
            break

    return AttackResult(
        attack="sequential_sat",
        recovered_key=key,
        completed=verified,
        iterations=iterations,
        oracle_queries=oracle.n_queries - start_queries,
        notes={
            "depth": config.depth,
            "verified": verified,
            "solver_vars": solver.n_vars,
        },
    )
