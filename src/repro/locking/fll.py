"""Fault-analysis-based logic locking (FLL [3]).

Key gates are placed on nets whose corruption propagates widely, ranked by
a fault-impact measurement: for each candidate net, flip it over a block of
random patterns and count output-bit corruptions.  This is the
fault-analysis ranking of Rajendran et al. — the same quantity, measured
the same way (a stuck-at-like perturbation).

Every candidate is scored at once on the compiled engine's forced lanes
(:meth:`~repro.sim.optape.OpTapeEngine.count_output_flips`): lane ``k``
replays the random block with candidate ``k`` inverted, and the lane's
count of flipped output bits is its score.  One unforced pass plus a few
chunked lane passes replace one full simulation per candidate; lanes
are sorted by net, and each chunk evaluates only the union of its
candidates' fanout cones on a reused-row arena
(:func:`~repro.sim.fused.forced_lane_diffs`).

The finished ranking is memoized on the compiled engine, so callers that
lock one netlist several times (Table I's key-gate doubling, the HD
sweep, the ablations) rank it once.  Span ``locking.rank`` (attrs
``nets``, ``cached``) wraps every call; counter ``locking.rank.cached``
counts memo hits.
"""

from __future__ import annotations

import random
import threading
from collections import OrderedDict
from typing import Sequence

import numpy as np

from .. import telemetry
from ..netlist import Netlist
from ..sim import random_words
from ..sim.optape import OpTapeEngine, compile_engine
from .base import (
    LockedCircuit,
    LockingError,
    _as_rng,
    insert_key_gate,
    make_key_inputs,
)


#: rankings kept per engine — the locking flows ask for one key per
#: netlist; a few more cover explicit candidate lists and pattern counts
_RANKINGS_PER_ENGINE = 4

_rank_lock = threading.Lock()


def rank_nets_by_fault_impact(
    netlist: Netlist,
    candidates: Sequence[str] | None = None,
    n_patterns: int = 512,
    seed: int = 0,
    max_candidates: int = 2000,
) -> list[tuple[str, float]]:
    """Rank internal nets by measured output corruption when flipped.

    Returns ``(net, corrupted_output_bits_per_pattern)`` sorted descending.
    On large circuits at most ``max_candidates`` nets are scored (a
    deterministic sample) — the ranking is a selection heuristic, not an
    exact analysis, so sampling preserves its role at much lower cost.

    The result is memoized on the content-addressed compiled engine: it
    is a pure function of the netlist's content and the arguments, so a
    same-content netlist reuses it and a mutated one gets a new engine.
    """
    engine = compile_engine(netlist)
    if candidates is not None:
        candidates = tuple(candidates)
    key = (candidates, n_patterns, seed, max_candidates)
    with telemetry.span("locking.rank") as span:
        with _rank_lock:
            memo = engine.__dict__.setdefault("_rankings", OrderedDict())
            ranking = memo.get(key)
        cached = ranking is not None
        if cached:
            telemetry.counter_add("locking.rank.cached")
        else:
            ranking = _score(engine, netlist, candidates, n_patterns, seed,
                             max_candidates)
        with _rank_lock:
            memo[key] = ranking
            memo.move_to_end(key)
            while len(memo) > _RANKINGS_PER_ENGINE:
                memo.popitem(last=False)
        span.set(nets=len(ranking), cached=cached)
    return list(ranking)


def _score(
    engine: OpTapeEngine,
    netlist: Netlist,
    candidates: Sequence[str] | None,
    n_patterns: int,
    seed: int,
    max_candidates: int,
) -> tuple[tuple[str, float], ...]:
    """One forced-lane pass over the candidates: the sorted ranking."""
    good = engine.run(random_words(len(netlist.inputs), n_patterns, seed=seed))
    if candidates is None:
        candidates = [
            n for n in netlist.nets if not netlist.gate(n).gtype.is_source
        ]
    if len(candidates) > max_candidates:
        rng = random.Random(seed)
        candidates = rng.sample(list(candidates), max_candidates)
    rows = np.array([engine.net_index(n) for n in candidates], dtype=np.int64)
    flips = engine.count_output_flips(good, rows, ~good[rows], n_patterns)
    scores = [(net, f / n_patterns) for net, f in zip(candidates, flips.tolist())]
    scores.sort(key=lambda t: (-t[1], t[0]))
    return tuple(scores)


def lock_fault_analysis(
    netlist: Netlist,
    key_width: int,
    rng: random.Random | int | None = 0,
    n_patterns: int = 512,
    key_prefix: str = "keyinput",
) -> LockedCircuit:
    """Apply FLL: key gates on the ``key_width`` highest-impact nets."""
    rng = _as_rng(rng)
    original = netlist.copy()
    locked = netlist.copy(f"{netlist.name}_fll")
    ranking = rank_nets_by_fault_impact(locked, n_patterns=n_patterns)
    if len(ranking) < key_width:
        raise LockingError(
            f"need {key_width} lockable nets, circuit has {len(ranking)}"
        )
    targets = [net for net, _ in ranking[:key_width]]
    key_inputs = make_key_inputs(locked, key_width, key_prefix)
    correct: dict[str, int] = {}
    key_gates: list[str] = []
    for key_in, target in zip(key_inputs, targets):
        inverted = bool(rng.randrange(2))
        insert_key_gate(locked, target, key_in, inverted, tag="fll")
        correct[key_in] = 1 if inverted else 0
        key_gates.append(target)
    return LockedCircuit(
        locked=locked,
        key_inputs=key_inputs,
        correct_key=correct,
        original=original,
        scheme="fll",
        key_gate_nets=key_gates,
        extra={"targets": targets, "impact": dict(ranking[:key_width])},
    )
