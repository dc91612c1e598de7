"""Bypass attack (Xu et al. [12]).

Against point-function schemes (SARLock/Anti-SAT) almost every key is
correct on almost every input.  The bypass attack therefore:

1. picks a random wrong key ``K'``;
2. SAT-enumerates the input patterns on which two wrong-keyed copies
   disagree (these contain the error points of ``K'``);
3. queries the oracle on each such pattern;
4. wraps the ``K'``-keyed circuit with a *bypass unit* — a comparator per
   error pattern that overrides the outputs with the recorded correct
   values.

Success requires the error-point count to be tiny (it is 1 per key for
SARLock); against high-corruptibility locking such as WLL the enumeration
explodes past the budget and the attack gives up — which is why OraP can
afford a high-corruptibility partner scheme.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping, Sequence

from ..netlist import GateType, Netlist
from ..runtime.budget import Budget, ResourceExhausted
from ..sat import CNF, ClauseTemplate, Solver, encode_gate
from .config import AttackConfig
from .oracle import Oracle
from .result import AttackResult, exhausted_result


@dataclass
class BypassConfig(AttackConfig):
    """Knobs for :func:`bypass_attack`.

    ``max_iterations`` is unused (the loop is bounded by
    ``max_error_points``, the bypass unit's size budget).
    """

    max_error_points: int = 32


def enumerate_disagreements(
    locked: Netlist,
    key_inputs: Sequence[str],
    key_a: Mapping[str, int],
    key_b: Mapping[str, int],
    limit: int,
    budget: Budget | None = None,
) -> list[dict[str, int]] | None:
    """All inputs where two fixed-key copies differ, as cubes (None if
    more than ``limit``).

    Copy B is stamped only over the fanout cone of the key bits where
    ``key_a`` and ``key_b`` differ; every other net is one variable in
    both copies, and only the cone's outputs get a difference variable.
    The "some output differs" clause sits under an activation literal,
    so the same solver also finds inputs where the copies agree: a cube
    drops an input's literal only if that lets no agreeing input in, so
    the cubes hold exactly the disagreeing inputs.
    """
    key_set = set(key_inputs)
    data_inputs = [i for i in locked.inputs if i not in key_set]
    cnf = CNF()
    x_vars = {name: cnf.new_var() for name in data_inputs}
    ka = {name: cnf.new_var() for name in key_inputs}
    for name in key_inputs:
        cnf.add_clause([ka[name]] if key_a[name] else [-ka[name]])
    kb = {
        name: cnf.new_var()
        for name in key_inputs
        if bool(key_a[name]) != bool(key_b[name])
    }
    for name, v in kb.items():
        cnf.add_clause([v] if key_b[name] else [-v])
    template = ClauseTemplate(locked)
    outputs = template.cone_outputs(kb)
    if not outputs:
        return []  # no differing key bit reaches an output
    var_a = template.stamp(cnf, {**x_vars, **ka})
    var_b = template.stamp_cone(cnf, var_a, kb)
    diffs = []
    for o in outputs:
        d = cnf.new_var()
        encode_gate(cnf, GateType.XOR, d, [var_a[o], var_b[o]])
        diffs.append(d)
    act = cnf.new_var()
    cnf.add_clause([-act, *diffs])
    agree = [-d for d in diffs]

    def disagrees(pattern: Mapping[str, int]) -> bool:
        asg_a = {**pattern, **key_a}
        asg_b = {**pattern, **key_b}
        return locked.evaluate_outputs(asg_a) != locked.evaluate_outputs(asg_b)

    def literals(cube: Mapping[str, int]) -> list[int]:
        return [x_vars[i] if bit else -x_vars[i] for i, bit in cube.items()]

    solver = Solver(cnf)
    cubes: list[dict[str, int]] = []
    while True:
        if budget is not None:
            budget.check_deadline()
        res = solver.solve(assumptions=[act], budget=budget)
        if not res.sat:
            return cubes
        assert res.model is not None
        pattern = {i: int(res.model[x_vars[i]]) for i in data_inputs}
        # expand to a cube (point-function blocks compare only a subset
        # of inputs, so each error "point" is really a cube over the
        # rest): keep an input's literal if the copies agree anywhere in
        # the wider cube, seen at once when its own flip agrees, else
        # asked of the miter (two flips can cancel)
        cube = dict(pattern)
        for name in data_inputs:
            flipped = dict(pattern)
            flipped[name] ^= 1
            if not disagrees(flipped):
                continue
            wider = {i: bit for i, bit in cube.items() if i != name}
            if not solver.solve(
                assumptions=[*literals(wider), *agree], budget=budget
            ).sat:
                cube = wider
        cubes.append(cube)
        if len(cubes) > limit:
            return None
        # block the whole cube
        solver.add_clause([-lit for lit in literals(cube)])


def build_bypassed_netlist(
    locked: Netlist,
    key_inputs: Sequence[str],
    chosen_key: Mapping[str, int],
    fixes: Sequence[tuple[Mapping[str, int], Sequence[str]]],
) -> Netlist:
    """Hardwire ``chosen_key`` and add comparator bypass units.

    Each fix is ``(cube, outputs_to_flip)``: when the cube matches, the
    listed outputs are inverted (a point-function error is a constant flip
    across its cube, so XOR-ing the match signal restores correctness for
    every don't-care assignment).
    """
    out = locked.copy(f"{locked.name}_bypass")
    for k in key_inputs:
        out.replace_gate(
            k, GateType.CONST1 if chosen_key[k] else GateType.CONST0, ()
        )
    for fi, (cube, flip_outputs) in enumerate(fixes):
        terms: list[str] = []
        for i, (name, bit) in enumerate(sorted(cube.items())):
            t = out.fresh_name(f"byp{fi}_t{i}_")
            out.add_gate(t, GateType.BUF if bit else GateType.NOT, (name,))
            terms.append(t)
        if len(terms) == 1:
            match = terms[0]
        else:
            match = out.fresh_name(f"byp{fi}_match_")
            out.add_gate(match, GateType.AND, tuple(terms))
        for o in flip_outputs:
            moved = out.fresh_name(f"{o}_pre_byp{fi}_")
            g = out.gate(o)
            out.add_gate(moved, g.gtype, g.fanin)
            out.replace_gate(o, GateType.XOR, (moved, match))
    return out


def bypass_attack(
    locked: Netlist,
    key_inputs: Sequence[str],
    oracle: Oracle,
    config: BypassConfig | None = None,
) -> AttackResult:
    """Run the bypass attack; reconstructed netlist in ``notes["netlist"]``."""
    config = config or BypassConfig()
    rng = random.Random(config.seed)
    start_queries = getattr(oracle, "n_queries", 0)
    key_a = {k: rng.randrange(2) for k in key_inputs}
    key_b = dict(key_a)
    flip = rng.choice(list(key_inputs))
    key_b[flip] ^= 1

    # feasibility probe: a bypass unit needs the chosen key to be wrong on
    # a vanishing fraction of inputs (true for point-function locking,
    # false for high-corruptibility schemes like WLL)
    key_set0 = set(key_inputs)
    data_inputs0 = [i for i in locked.inputs if i not in key_set0]
    err_samples = 0
    n_probe = 48
    budget = config.budget
    try:
        for _ in range(n_probe):
            if budget is not None:
                budget.check_deadline()
            pattern = {i: rng.randrange(2) for i in data_inputs0}
            raw = oracle.query(pattern)
            got = locked.evaluate_outputs({**pattern, **key_a})
            if any(got[o] != int(bool(raw[o])) for o in locked.outputs):
                err_samples += 1
    except ResourceExhausted as exc:
        return exhausted_result(
            "bypass",
            exc,
            oracle_queries=getattr(oracle, "n_queries", 0) - start_queries,
        )
    if err_samples / n_probe > 0.05:
        return AttackResult(
            attack="bypass",
            recovered_key=None,
            completed=False,
            oracle_queries=getattr(oracle, "n_queries", 0) - start_queries,
            notes={
                "reason": "error rate too high for a bypass unit",
                "sampled_error_rate": err_samples / n_probe,
            },
        )

    try:
        points = enumerate_disagreements(
            locked, key_inputs, key_a, key_b, config.max_error_points,
            budget=budget,
        )
    except ResourceExhausted as exc:
        return exhausted_result(
            "bypass",
            exc,
            oracle_queries=getattr(oracle, "n_queries", 0) - start_queries,
        )
    if points is None:
        return AttackResult(
            attack="bypass",
            recovered_key=None,
            completed=False,
            oracle_queries=getattr(oracle, "n_queries", 0) - start_queries,
            notes={
                "reason": f"more than {config.max_error_points} disagreement "
                "points — corruptibility too high for a bypass unit"
            },
        )
    key_set = set(key_inputs)
    data_inputs = [i for i in locked.inputs if i not in key_set]

    def errs(pattern: Mapping[str, int]) -> list[str]:
        """Outputs where locked(key_a) disagrees with the oracle."""
        raw = oracle.query(pattern)
        got = locked.evaluate_outputs({**pattern, **key_a})
        return [o for o in locked.outputs if got[o] != int(bool(raw[o]))]

    fixes: list[tuple[dict[str, int], list[str]]] = []
    try:
        for cube in points:
            if budget is not None:
                budget.check_deadline()
            # representative pattern: don't-cares at 0
            pattern = {i: int(bool(cube.get(i, 0))) for i in data_inputs}
            flip_outputs = errs(pattern)
            if not flip_outputs:
                # the representative may sit in key_b's error region while
                # key_a's lies across one of the cube's don't-care bits
                for name in data_inputs:
                    if name in cube:
                        continue
                    probe = dict(pattern)
                    probe[name] ^= 1
                    flip_outputs = errs(probe)
                    if flip_outputs:
                        pattern = probe
                        break
            if not flip_outputs:
                continue  # this disagreement cube was key_b's error only
            # re-expand the cube against the *oracle* (the Ka-vs-Kb cube may
            # merge both keys' error regions): an input is a don't-care only
            # if flipping it leaves the same outputs wrong
            fix_cube: dict[str, int] = {}
            for name in data_inputs:
                flipped = dict(pattern)
                flipped[name] ^= 1
                if errs(flipped) != flip_outputs:
                    fix_cube[name] = pattern[name]
            fixes.append((fix_cube, flip_outputs))
    except ResourceExhausted as exc:
        return exhausted_result(
            "bypass",
            exc,
            iterations=len(points),
            oracle_queries=getattr(oracle, "n_queries", 0) - start_queries,
        )
    rebuilt = build_bypassed_netlist(locked, key_inputs, key_a, fixes)
    return AttackResult(
        attack="bypass",
        recovered_key=None,
        completed=True,
        iterations=len(points),
        oracle_queries=getattr(oracle, "n_queries", 0) - start_queries,
        notes={"netlist": rebuilt, "n_error_points": len(points)},
    )
