"""The SAT attack on logic locking (Subramanyan et al. [6]).

Algorithm: maintain two copies of the locked netlist that share the data
inputs ``X`` but have independent key vectors ``K1``/``K2``.  Repeatedly:

1. Find a *distinguishing input pattern* (DIP) ``X*`` and keys producing
   different outputs on it.
2. Query the oracle for the correct output ``Y* = eval(X*)``.
3. Constrain both key copies to produce ``Y*`` on ``X*``.

All circuit copies are encoded through a shared structurally-hashed AIG
(:mod:`repro.sat.aigenc`): the I/O-constraint copies have constant
data inputs that fold away, so each iteration adds only a small key-cone —
the trick that keeps instances tractable, as in the original attack tool's
use of ABC-style preprocessing.

One solver lives for the whole attack.  The miter's difference literal
is guarded by an activation variable (``[-act, diff]``), so the DIP
search runs under ``assumptions=[act]`` and the final key extraction
under ``assumptions=[-act]`` on the *same* solver — learned clauses,
VSIDS activities and saved phases all carry across iterations instead
of being re-derived from scratch.  Each SAT answer also yields two
concrete keys (the ``K1``/``K2`` models); the attack bit-parallel
simulates both keys over ``dip_probe_patterns`` random patterns via
:meth:`~repro.sim.optape.OpTapeEngine.run_keyed` and turns every
differing column into an extra witnessed DIP — up to ``dip_batch``
oracle queries per solve, which cuts the number of (expensive) solver
calls well below the number of DIPs.  Batching is *adaptive*: an extra
DIP is only informative when its oracle answer contradicts a model key
that this solve's constraints had not already contradicted; a batch
that yields no such DIP halves the batch allowance (point-function
schemes like SARLock, where every probe re-kills the same witness, fall
back to the one-DIP-per-solve loop within a few iterations instead of
burning the DIP budget on redundant queries).

When no DIP exists, every key satisfying the accumulated constraints is
functionally correct *with respect to the oracle's answers* — if the
oracle was the real unlocked circuit, that is the correct (or an
equivalent) key.  Against an OraP chip the oracle answers with the locked
circuit's responses, so the attack converges to a key reproducing the
*locked* behaviour: completed, but wrong.  That distinction is what the
attack-matrix experiment measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .. import telemetry
from ..netlist import Netlist
from ..runtime.budget import Budget, BudgetExhausted, ResourceExhausted
from ..sat import AIGEncoder, Solver
from .config import AttackConfig
from .oracle import Oracle
from .result import AttackResult, exhausted_result


@dataclass
class SATAttackConfig(AttackConfig):
    """Knobs for :func:`sat_attack`.

    Attributes:
        max_iterations: DIP budget before giving up (None = unlimited);
            counts every oracle-constrained DIP, including batched ones.
        conflict_budget: per-solve CDCL conflict cap (None = unlimited).
        dip_batch: maximum oracle-constrained DIPs per solver call (the
            solver's own DIP plus simulated witnesses); ``<= 1`` disables
            batching.  The live allowance adapts downward (halving)
            whenever a batch produces only redundant DIPs, and resets
            after a productive batch.
        dip_probe_patterns: random input patterns simulated per batch
            probe to hunt for extra DIPs distinguishing the two model
            keys; ``0`` disables probing.
        dip_probe_keys: total witness keys per probe — the two solver
            models plus random keys — used to judge whether a candidate
            DIP is informative (its oracle answer contradicts a witness
            not already contradicted this solve).  Dense schemes (RLL,
            WLL) keep contradicting fresh witnesses so batching stays
            on; point-function schemes (SARLock) re-kill the same one
            and trigger the batch backoff.
        budget: shared :class:`~repro.runtime.Budget` bounding the whole
            attack (all solves plus oracle traffic); violations become a
            ``timeout``/``budget`` status row, never an exception.
    """

    max_iterations: int | None = 256
    conflict_budget: int | None = None
    dip_batch: int = 8
    dip_probe_patterns: int = 256
    dip_probe_keys: int = 8


def _probe_candidate_columns(
    engine,
    data_inputs: Sequence[str],
    key_inputs: Sequence[str],
    witness_keys: np.ndarray,
    n_patterns: int,
    seed: int,
) -> tuple[np.ndarray, list[int], np.ndarray]:
    """Simulate the witness keys over random patterns; return the packed
    pattern words, every column index where the first two witnesses (the
    solver's K1/K2 models) differ, and the
    ``(n_witnesses, n_outputs, n_words)`` packed per-key outputs.

    Sound by construction: ``K1``/``K2`` both satisfy the current
    constraint set, so any input separating them is a genuine DIP for
    this iteration, and oracle I/O constraints are true of the correct
    key no matter which input produced them.
    """
    from ..sim.patterns import random_words

    words = random_words(len(data_inputs), n_patterns, seed=seed)
    outs = engine.run_keyed(data_inputs, words, key_inputs, witness_keys)
    diff = np.bitwise_or.reduce(outs[0] ^ outs[1], axis=0)
    cols: list[int] = []
    nw = int(diff.shape[0])
    tail = n_patterns % 64
    for w in range(nw):
        word = int(diff[w])
        if tail and w == nw - 1:
            word &= (1 << tail) - 1
        while word:
            cols.append(w * 64 + (word & -word).bit_length() - 1)
            word &= word - 1
    return words, cols, outs


def sat_attack(
    locked: Netlist,
    key_inputs: Sequence[str],
    oracle: Oracle,
    config: SATAttackConfig | None = None,
) -> AttackResult:
    """Run the SAT attack.

    Args:
        locked: the locked netlist (what the attacker reverse-engineered).
        key_inputs: names of the key inputs within ``locked``.
        oracle: correct-response provider (ideal or scan-level).

    Returns:
        AttackResult with ``recovered_key`` set when the DIP loop reached
        UNSAT (``completed=True``).  ``notes`` carries the solver-work
        counters ``conflicts``, ``n_solves`` and ``dips_per_solve``.
    """
    config = config or SATAttackConfig()
    key_set = set(key_inputs)
    data_inputs = [i for i in locked.inputs if i not in key_set]

    solver = Solver()
    enc = AIGEncoder(solver)
    x_lits = {name: enc.fresh_pi(name) for name in data_inputs}
    k1_lits = {name: enc.fresh_pi(f"k1_{name}") for name in key_inputs}
    k2_lits = {name: enc.fresh_pi(f"k2_{name}") for name in key_inputs}
    out1 = enc.encode_netlist(locked, {**x_lits, **k1_lits})
    out2 = enc.encode_netlist(locked, {**x_lits, **k2_lits})
    diff = enc.diff_literal([(out1[o], out2[o]) for o in locked.outputs])

    # materialize per-output solver literals up front so every model
    # assigns them (lets the batch prober read K1/K2 output predictions
    # straight off the model without re-solving)
    out_lits = {
        wi: {o: enc.sat_literal(k_out[o]) for o in locked.outputs}
        for wi, k_out in ((0, out1), (1, out2))
    }

    # soft miter: [-act, diff] is the difference constraint only when act
    # is assumed, so the same solver answers the key-extraction query
    # under [-act] with all learned clauses intact
    act = solver.new_var()
    solver.add_clause([-act, enc.sat_literal(diff)])

    batching = (
        bool(key_inputs)
        and bool(data_inputs)
        and config.dip_batch > 1
        and config.dip_probe_patterns > 0
    )
    engine = None
    if batching:
        from ..sim.optape import compile_engine

        engine = compile_engine(locked)

    io_log: list[tuple[dict[str, int], dict[str, int]]] = []
    seen_dips: set[tuple[int, ...]] = set()
    n_solves = 0
    allowed_extra = max(0, config.dip_batch - 1)
    start_queries = getattr(oracle, "n_queries", 0)

    def _lit_value(model: Mapping[int, bool], lit: int) -> int:
        return int(bool(model[abs(lit)]) ^ (lit < 0))

    def queries_used() -> int:
        return getattr(oracle, "n_queries", 0) - start_queries

    def notes(**extra: object) -> dict:
        return {
            "io_log_len": len(io_log),
            "conflicts": solver.stats_conflicts,
            "n_solves": n_solves,
            "dips_per_solve": round(len(io_log) / max(1, n_solves), 4),
            **extra,
        }

    def add_io_constraint(
        dip: Mapping[str, int], response: Mapping[str, int]
    ) -> None:
        for k_lits in (k1_lits, k2_lits):
            outs = enc.encode_netlist(locked, dict(k_lits), const_inputs=dip)
            for o in locked.outputs:
                enc.assert_equals(outs[o], response[o])

    def constrain(dip: dict[str, int]) -> None:
        raw = oracle.query(dip)
        response = {o: int(bool(raw[o])) for o in locked.outputs}
        io_log.append((dip, response))
        seen_dips.add(tuple(dip[name] for name in data_inputs))
        add_io_constraint(dip, response)
        telemetry.counter_add("attack.dips")

    def iterations_left() -> int | None:
        if config.max_iterations is None:
            return None
        return config.max_iterations - len(io_log)

    budget = config.budget
    try:
        while True:
            if budget is not None:
                budget.check_deadline()
            left = iterations_left()
            if left is not None and left <= 0:
                return AttackResult(
                    attack="sat",
                    recovered_key=None,
                    completed=False,
                    iterations=len(io_log),
                    oracle_queries=queries_used(),
                    status="budget",
                    notes=notes(reason="iteration budget exhausted"),
                )
            with telemetry.span("attack.sat.iteration", dip=len(io_log)):
                try:
                    res = solver.solve(
                        assumptions=[act],
                        conflict_budget=config.conflict_budget,
                        budget=budget,
                    )
                    n_solves += 1
                except BudgetExhausted:
                    if budget is not None and budget.exhausted():
                        raise  # shared-budget violation: report as status row
                    return AttackResult(
                        attack="sat",
                        recovered_key=None,
                        completed=False,
                        iterations=len(io_log),
                        oracle_queries=queries_used(),
                        status="budget",
                        notes=notes(reason="conflict budget exhausted"),
                    )
                if not res.sat:
                    break
                assert res.model is not None
                dip = {
                    name: int(res.model[enc.pi_var(lit)])
                    for name, lit in x_lits.items()
                }
                constrain(dip)
                if batching and allowed_extra > 0:
                    assert engine is not None
                    k1 = [
                        int(res.model[enc.pi_var(k1_lits[n])])
                        for n in key_inputs
                    ]
                    k2 = [
                        int(res.model[enc.pi_var(k2_lits[n])])
                        for n in key_inputs
                    ]
                    # witness panel: the two solver models plus random
                    # keys; a candidate DIP is informative when its
                    # oracle answer contradicts a witness this solve had
                    # not already contradicted
                    n_wit = max(2, config.dip_probe_keys)
                    rng = np.random.default_rng(
                        config.seed + 6011 * n_solves
                    )
                    witness_keys = np.concatenate(
                        [
                            np.array([k1, k2], dtype=np.uint8),
                            rng.integers(
                                0,
                                2,
                                size=(n_wit - 2, len(key_inputs)),
                                dtype=np.uint8,
                            ),
                        ]
                    )
                    # seed the kill set from the solver DIP's own answer
                    # (K1/K2 predictions read straight off the model)
                    response = io_log[-1][1]
                    killed = set()
                    for wi in (0, 1):
                        pred = {
                            o: _lit_value(res.model, out_lits[wi][o])
                            for o in locked.outputs
                        }
                        if pred != response:
                            killed.add(wi)
                    words, cols, outs = _probe_candidate_columns(
                        engine,
                        data_inputs,
                        key_inputs,
                        witness_keys,
                        config.dip_probe_patterns,
                        config.seed + 7919 * n_solves,
                    )
                    extra = allowed_extra
                    informative = 0
                    for c in cols:
                        if extra <= 0 or len(killed) >= n_wit:
                            break
                        left = iterations_left()
                        if left is not None and left <= 0:
                            break
                        cand = {
                            name: int((words[row, c >> 6] >> (c & 63)) & 1)
                            for row, name in enumerate(data_inputs)
                        }
                        sig = tuple(cand[name] for name in data_inputs)
                        if sig in seen_dips:
                            continue
                        constrain(cand)
                        extra -= 1
                        cand_resp = io_log[-1][1]
                        contradicted = {
                            wi
                            for wi in range(n_wit)
                            if any(
                                int(
                                    (outs[wi, oi, c >> 6] >> (c & 63)) & 1
                                )
                                != cand_resp[o]
                                for oi, o in enumerate(locked.outputs)
                            )
                        }
                        if contradicted - killed:
                            killed |= contradicted
                            informative += 1
                        else:
                            # redundant witness kills only: the rest of
                            # this probe almost surely repeats them
                            break
                    if informative:
                        allowed_extra = max(0, config.dip_batch - 1)
                    elif extra < allowed_extra:
                        # unproductive batch: back off exponentially so
                        # point-function schemes degenerate to the plain
                        # one-DIP-per-solve loop within a few solves
                        allowed_extra //= 2

        res = solver.solve(assumptions=[-act], budget=budget)
        n_solves += 1
        if res.sat:
            assert res.model is not None
            key = {
                name: int(res.model[enc.pi_var(lit)])
                for name, lit in k1_lits.items()
            }
        else:
            key = None  # contradictory history (e.g. a flaky oracle)
    except ResourceExhausted as exc:
        return exhausted_result(
            "sat", exc, iterations=len(io_log), oracle_queries=queries_used()
        )
    return AttackResult(
        attack="sat",
        recovered_key=key,
        completed=key is not None,
        iterations=len(io_log),
        oracle_queries=queries_used(),
        notes=notes(),
    )


def extract_consistent_key(
    locked: Netlist,
    key_inputs: Sequence[str],
    io_log: Sequence[tuple[Mapping[str, int], Mapping[str, int]]],
    budget: Budget | None = None,
) -> dict[str, int] | None:
    """Solve for a key consistent with every logged (input, output) pair.

    Returns None only if the history is contradictory (no single key
    explains all oracle answers — e.g. a flaky oracle).
    """
    solver = Solver()
    enc = AIGEncoder(solver)
    k_lits = {name: enc.fresh_pi(name) for name in key_inputs}
    for dip, response in io_log:
        outs = enc.encode_netlist(locked, dict(k_lits), const_inputs=dip)
        for o in locked.outputs:
            enc.assert_equals(outs[o], int(bool(response[o])))
    res = solver.solve(budget=budget)
    if not res.sat:
        return None
    assert res.model is not None
    return {
        name: int(res.model[enc.pi_var(lit)]) for name, lit in k_lits.items()
    }
