"""Key-sensitization attack (Yasin et al. [5]).

For each key input, SAT-search an input pattern that *sensitizes* the key
bit to a primary output (the output flips when the key bit flips, for some
assignment of the remaining key bits).  Querying the oracle on that
pattern and simulating the locked netlist for both values of the bit then
reveals it — provided the pattern is *golden*: the sensitized outputs must
be determined by the target bit alone, not by the other (unknown) keys.
Golden-ness is checked by sampling the unknown keys; non-golden patterns
are discarded (this interference is exactly what "strong logic locking"
later engineered, and why the attack cannot always finish bit-by-bit).

Bits that resist individual sensitization are brute-forced at the end
against a batch of oracle responses (bit-parallel simulation), and the
final key is verified against fresh oracle queries — an attack that
completes reports a key that truly matches the oracle's behaviour.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .. import telemetry
from ..netlist import GateType, Netlist
from ..runtime.budget import Budget, ResourceExhausted
from ..sat import CNF, ClauseTemplate, Solver, encode_gate
from .config import AttackConfig
from ..sim import compile_engine, pack_patterns, tail_mask
from .oracle import Oracle
from .result import AttackResult, exhausted_result


#: key combinations per engine pass in the brute-force step
_KEY_LANES = 64


@dataclass
class SensitizationConfig(AttackConfig):
    """Knobs for :func:`sensitization_attack`.

    ``max_iterations`` counts full passes over the key bits.  (The
    pre-v1 spelling ``max_rounds`` completed its deprecation cycle and
    was removed; passing it is now a :class:`TypeError`.)
    """

    max_iterations: int = 8
    attempts_per_bit: int = 4
    #: samples of the unknown keys used to confirm a pattern is golden
    golden_samples: int = 8
    #: brute-force the remaining bits when at most this many resist
    #: individual sensitization (mutual interference / pairwise security)
    brute_force_limit: int = 12
    brute_force_patterns: int = 32
    verify_patterns: int = 16


class _SensitizingMiter:
    """One key bit's sensitization miter on one incremental solver.

    Copy A (target bit 0) is the locked netlist's full stamp; copy B
    (target bit 1) is stamped only over the bit's fanout cone, so every
    net outside it is one variable in both copies.  Only the cone's
    outputs can differ, and at least one must.  ``known`` pins the
    already-recovered key bits; :meth:`block` excludes a tried pattern.
    """

    def __init__(
        self,
        template: ClauseTemplate,
        data_inputs: Sequence[str],
        key_inputs: Sequence[str],
        target_bit: str,
        known: dict[str, int],
    ) -> None:
        cnf = CNF()
        self.x_vars = {name: cnf.new_var() for name in data_inputs}
        other = [k for k in key_inputs if k != target_bit and k not in known]
        self.k_vars = {name: cnf.new_var() for name in other}
        t0 = cnf.new_var()  # copy A: target = 0
        t1 = cnf.new_var()  # copy B: target = 1
        cnf.add_clause([-t0])
        cnf.add_clause([t1])
        const_vars: dict[str, int] = {}
        for name, bit in known.items():
            v = cnf.new_var()
            cnf.add_clause([v] if bit else [-v])
            const_vars[name] = v
        share_a = {**self.x_vars, **self.k_vars, **const_vars, target_bit: t0}
        var_a = template.stamp(cnf, share_a)
        var_b = template.stamp_cone(cnf, var_a, {target_bit: t1})
        diffs = []
        for o in template.cone_outputs([target_bit]):
            d = cnf.new_var()
            encode_gate(cnf, GateType.XOR, d, [var_a[o], var_b[o]])
            diffs.append(d)
        cnf.add_clause(diffs)
        self.solver = Solver(cnf)

    def solve(
        self, budget: Budget | None = None
    ) -> tuple[dict[str, int], dict[str, int]] | None:
        """(pattern, other_keys) flipping some output when the target
        flips, or None when no unblocked pattern does."""
        res = self.solver.solve(budget=budget)
        if not res.sat:
            return None
        assert res.model is not None
        pattern = {i: int(res.model[v]) for i, v in self.x_vars.items()}
        others = {k: int(res.model[v]) for k, v in self.k_vars.items()}
        return pattern, others

    def block(self, pattern: dict[str, int]) -> None:
        """Exclude ``pattern`` from every later :meth:`solve`."""
        self.solver.add_clause(
            [(-v if pattern[i] else v) for i, v in self.x_vars.items()]
        )


def sensitization_attack(
    locked: Netlist,
    key_inputs: Sequence[str],
    oracle: Oracle,
    config: SensitizationConfig | None = None,
) -> AttackResult:
    """Run the key-sensitization attack."""
    config = config or SensitizationConfig()
    rng = random.Random(config.seed)
    key_set = set(key_inputs)
    data_inputs = [i for i in locked.inputs if i not in key_set]
    known: dict[str, int] = {}
    template = ClauseTemplate(locked)
    start_queries = getattr(oracle, "n_queries", 0)
    attempts = 0

    def simulate(pattern: dict[str, int], key: dict[str, int]) -> dict[str, int]:
        assignment = dict(pattern)
        assignment.update(key)
        return locked.evaluate_outputs(assignment)

    def is_golden(
        pattern: dict[str, int],
        bit: str,
        others: dict[str, int],
        sensitized: list[str],
        out0: dict[str, int],
        out1: dict[str, int],
    ) -> bool:
        """The sensitized outputs must not depend on the unknown keys."""
        unknown = [k for k in key_inputs if k != bit and k not in known]
        for _ in range(config.golden_samples):
            trial = {k: rng.randrange(2) for k in unknown}
            trial.update(known)
            s0 = simulate(pattern, {**trial, bit: 0})
            s1 = simulate(pattern, {**trial, bit: 1})
            for o in sensitized:
                if s0[o] != out0[o] or s1[o] != out1[o]:
                    return False
        return True

    budget = config.budget
    try:
        for round_no in range(config.max_iterations):
            with telemetry.span(
                "attack.sensitization.round", round=round_no
            ) as round_span:
                progress = False
                miters = 0
                for bit in key_inputs:
                    if bit in known:
                        continue
                    if budget is not None:
                        budget.check_deadline()
                    if not template.cone_outputs([bit]):
                        continue  # the bit reaches no output: no pattern
                    miter = _SensitizingMiter(
                        template, data_inputs, key_inputs, bit, known
                    )
                    miters += 1
                    for _ in range(config.attempts_per_bit):
                        found = miter.solve(budget=budget)
                        if found is None:
                            break
                        pattern, others = found
                        attempts += 1
                        trial = {**known, **others}
                        out0 = simulate(pattern, {**trial, bit: 0})
                        out1 = simulate(pattern, {**trial, bit: 1})
                        sensitized = [
                            o for o in locked.outputs if out0[o] != out1[o]
                        ]
                        if not is_golden(
                            pattern, bit, others, sensitized, out0, out1
                        ):
                            miter.block(pattern)
                            continue
                        want = oracle.query(pattern)
                        want = {o: int(bool(want[o])) for o in locked.outputs}
                        m0 = all(out0[o] == want[o] for o in sensitized)
                        m1 = all(out1[o] == want[o] for o in sensitized)
                        if m0 != m1:  # exactly one hypothesis consistent
                            known[bit] = 0 if m0 else 1
                            progress = True
                            break
                        miter.block(pattern)
                round_span.set(
                    bits_known=len(known), progress=progress, miters=miters
                )
            if len(known) == len(key_inputs):
                break
            if not progress:
                break

        remaining = [k for k in key_inputs if k not in known]
        brute_forced = False
        if remaining and len(remaining) <= config.brute_force_limit:
            # interfering bits resist isolation (pairwise-secured gates); the
            # attacker falls back to exhausting the residual key space against
            # a batch of oracle responses, bit-parallel
            probes = []
            for _ in range(config.brute_force_patterns):
                pattern = {i: rng.randrange(2) for i in data_inputs}
                raw = oracle.query(pattern)
                probes.append(
                    (pattern, {o: int(bool(raw[o])) for o in locked.outputs})
                )
            match = _bruteforce_bits(
                locked, data_inputs, known, remaining, probes
            )
            if match is not None:
                known = match
                brute_forced = True

        complete = len(known) == len(key_inputs)
        recovered = dict(known) if complete else None

        # final verification: a completed attack must reproduce the oracle
        if complete:
            for _ in range(config.verify_patterns):
                pattern = {i: rng.randrange(2) for i in data_inputs}
                raw = oracle.query(pattern)
                got = simulate(pattern, recovered)
                if any(got[o] != int(bool(raw[o])) for o in locked.outputs):
                    complete = False
                    recovered = None
                    break
    except ResourceExhausted as exc:
        return exhausted_result(
            "sensitization",
            exc,
            iterations=attempts,
            oracle_queries=getattr(oracle, "n_queries", 0) - start_queries,
        )

    return AttackResult(
        attack="sensitization",
        recovered_key=recovered,
        completed=complete,
        iterations=attempts,
        oracle_queries=getattr(oracle, "n_queries", 0) - start_queries,
        notes={
            "bits_recovered": len(known) if complete else len(
                [k for k in known if k not in remaining]
            ),
            "key_width": len(key_inputs),
            "brute_forced": brute_forced,
        },
    )


def _bruteforce_bits(
    locked: Netlist,
    data_inputs: Sequence[str],
    known: dict[str, int],
    remaining: Sequence[str],
    probes: Sequence[tuple[dict[str, int], dict[str, int]]],
) -> dict[str, int] | None:
    """Exhaust the residual key bits against recorded oracle responses.

    Combination ``c`` sets ``remaining[i]`` to bit ``i`` of ``c``.  The
    combinations run :data:`_KEY_LANES` at a time on the key lanes of the
    compiled engine, with the known bits as constant key columns; the
    lowest-index combination that reproduces every probe wins.
    """
    engine = compile_engine(locked)
    bits = np.array(
        [[p[i] for i in data_inputs] for p, _ in probes], dtype=np.uint8
    )
    data_words = pack_patterns(bits)
    want_bits = np.array(
        [[r[o] for o in locked.outputs] for _, r in probes], dtype=np.uint8
    )
    want_words = pack_patterns(want_bits)
    mask = tail_mask(len(probes))
    key_inputs = [*known, *remaining]
    n_known = len(known)
    shifts = np.arange(len(remaining))
    n_combos = 1 << len(remaining)
    for lo in range(0, n_combos, _KEY_LANES):
        combos = np.arange(lo, min(lo + _KEY_LANES, n_combos))
        key_bits = np.empty((len(combos), len(key_inputs)), dtype=np.uint8)
        key_bits[:, :n_known] = list(known.values())
        key_bits[:, n_known:] = (combos[:, None] >> shifts) & 1
        outs = engine.run_keyed(data_inputs, data_words, key_inputs, key_bits)
        diff = outs ^ want_words
        diff[:, :, -1] &= mask
        hits = np.flatnonzero(~diff.any(axis=(1, 2)))
        if hits.size:
            combo = lo + int(hits[0])
            guess = dict(known)
            for bi, name in enumerate(remaining):
                guess[name] = (combo >> bi) & 1
            return guess
    return None
