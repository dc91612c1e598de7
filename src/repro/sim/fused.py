"""Fused CPU lane: the op-tape lowered to straight-line ufunc calls.

The grouped numpy evaluator pays two costs per tape group that dominate
its runtime on large circuits: fancy-index *gathers* (``np.take`` /
``values[fanin_idx]`` run well below streaming bandwidth and allocate a
``(arity, group, n_cols)`` temporary per group) and Python dispatch that
cannot see across group boundaries.  This lane removes both by planning
the whole tape ahead of time:

* **Per-gate row views, zero gathers.**  Every primitive is a single
  numpy ufunc call on contiguous arena *rows* (``op(V[a], V[b], V[o])``)
  — no index arrays, no temporaries, every operand a view.
* **Alias + polarity tracking.**  BUF/NOT gates emit no code at all: the
  planner tracks each net as ``(storage_row, polarity)`` and lets
  consumers absorb the inversion.  XOR/XNOR absorb input polarities into
  the output polarity for free.
* **Dual-form (De Morgan) selection.**  AND/NAND/OR/NOR gates whose
  inputs are mostly stored inverted switch to the dual reduction over
  the uncomplemented rows and flip the output polarity instead of
  materializing complements; the complements that remain are shared
  through a per-plan cache.
* **Live-range row reuse.**  A greedy free-list allocator remaps rows
  the moment their last reader has run, shrinking the scratch arena to
  roughly the engine's net count even with complement rows added.
* **Reusable arena.**  The arena and the fully bound step list are
  cached per ``(engine, n_columns)`` — steady-state calls do zero
  allocation beyond the output block.

This is the one execution lane: :meth:`OpTapeEngine.run_outputs
<repro.sim.optape.OpTapeEngine.run_outputs>` and
:meth:`~repro.sim.optape.OpTapeEngine.run_keyed` call it directly, and
the differential suite checks it bit for bit against the
:class:`~repro.sim.bitsim.BitSimulator` oracle.  A bound plan owns its
arena, so one engine must not run the same column width from two
threads at once.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Mapping, Sequence

import numpy as np

from .. import telemetry
from ..netlist import GateType

_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)
_POL = (np.uint64(0), _ALL_ONES)

_AND = np.bitwise_and
_OR = np.bitwise_or
_XOR = np.bitwise_xor

#: bound plans kept per engine — metrics chunking plus a bench lane or
#: two; beyond this the least recently used arena is dropped
_PLANS_PER_ENGINE = 6

_plan_lock = threading.Lock()


class _Program:
    """Column-width-independent lowering of one engine's tape.

    ``steps`` hold *physical* arena rows (post live-range remap) in one
    of two primitive forms::

        ("b", ufunc, a, b, o)   o <- a op b
        ("u", s, o)             o <- ~s
    """

    __slots__ = (
        "steps",
        "n_rows",
        "out_pairs",
        "const0_rows",
        "const1_rows",
    )

    def __init__(
        self,
        steps: list[tuple],
        n_rows: int,
        out_pairs: list[tuple[int, int]],
        const0_rows: np.ndarray,
        const1_rows: np.ndarray,
    ) -> None:
        self.steps = steps
        self.n_rows = n_rows
        self.out_pairs = out_pairs
        self.const0_rows = const0_rows
        self.const1_rows = const1_rows


def _build_program(engine: Any) -> _Program:
    """Lower the engine tape to abstract primitives, then remap rows."""
    n_sources = engine._n_sources
    loc: dict[int, tuple[int, int]] = {i: (i, 0) for i in range(n_sources)}

    next_row = engine.n_nets
    steps: list[tuple] = []
    comp_of: dict[int, int] = {}
    tmp_row: int | None = None

    def comp(sr: int) -> int:
        """Materialized complement of a storage row (cached)."""
        nonlocal next_row
        cached = comp_of.get(sr)
        if cached is not None:
            return cached
        c = next_row
        next_row += 1
        steps.append(("u", sr, c))
        comp_of[sr] = c
        return c

    def tmp() -> int:
        nonlocal tmp_row, next_row
        if tmp_row is None:
            tmp_row = next_row
            next_row += 1
        return tmp_row

    def emit_chain(op: np.ufunc, eff: list[int], dest: int) -> None:
        steps.append(("b", op, eff[0], eff[1], dest))
        for e in eff[2:]:
            steps.append(("b", op, dest, e, dest))

    for group in engine._tape:
        fan = group.fanin_idx
        arity = fan.shape[0]
        gtype = group.gtype
        for j in range(group.size):
            r = group.start + j
            srcs = [int(fan[s, j]) for s in range(arity)]
            if gtype is GateType.MUX:
                s_row, s_pol = loc[srcs[0]]
                d0, p0 = loc[srcs[1]]
                d1, p1 = loc[srcs[2]]
                if s_pol:  # MUX(~s, d0, d1) == MUX(s, d1, d0)
                    d0, p0, d1, p1 = d1, p1, d0, p0
                if p0:
                    d0 = comp(d0)
                if p1:
                    d1 = comp(d1)
                t = tmp()
                steps.append(("u", s_row, t))
                steps.append(("b", _AND, d0, t, t))
                steps.append(("b", _AND, d1, s_row, r))
                steps.append(("b", _OR, r, t, r))
                loc[r] = (r, 0)
                continue
            if arity == 1 or gtype is GateType.BUF or gtype is GateType.NOT:
                sa, pa = loc[srcs[0]]
                loc[r] = (sa, pa ^ (1 if gtype.is_inverting else 0))
                continue
            pairs = [loc[s] for s in srcs]
            if gtype is GateType.XOR or gtype is GateType.XNOR:
                pol = 1 if gtype.is_inverting else 0
                for _, p in pairs:
                    pol ^= p
                op: np.ufunc = _XOR
                eff = [sr for sr, _ in pairs]
            else:
                base = _AND if gtype in (GateType.AND, GateType.NAND) else _OR
                inv = 1 if gtype.is_inverting else 0
                n_inverted = sum(p for _, p in pairs)
                if 2 * n_inverted > arity:
                    # dual form: op(x...) == ~dual(~x...); most inputs
                    # are already stored inverted, so this minimizes
                    # complement materializations
                    op = _OR if base is _AND else _AND
                    need = [(sr, 1 - p) for sr, p in pairs]
                    pol = 1 ^ inv
                else:
                    op = base
                    need = pairs
                    pol = inv
                eff = [sr if p == 0 else comp(sr) for sr, p in need]
            emit_chain(op, eff, r)
            loc[r] = (r, pol)

    out_abstract = [loc[int(i)] for i in engine._output_idx]

    # ---- live-range remap: greedy free-list reuse of dead rows ---- #
    def _reads(st: tuple) -> tuple[int, ...]:
        if st[0] == "b":
            return (st[2], st[3])
        return (st[1],)

    def _write(st: tuple) -> int:
        return st[-1]

    reserved = set(range(n_sources))
    pinned = set(reserved)
    pinned.update(sr for sr, _ in out_abstract)
    if tmp_row is not None:
        pinned.add(tmp_row)

    last_read: dict[int, int] = {}
    for i, st in enumerate(steps):
        for rr in _reads(st):
            last_read[rr] = i

    remap: dict[int, int] = {}
    free: list[int] = []
    next_fresh = 0

    def fresh() -> int:
        nonlocal next_fresh
        while next_fresh in reserved:
            next_fresh += 1
        v = next_fresh
        next_fresh += 1
        return v

    for i, st in enumerate(steps):
        reads = _reads(st)
        for rr in reads:
            if rr not in remap:
                remap[rr] = rr  # read-before-write: sources
        w = _write(st)
        if w not in remap:
            if w in reserved:
                remap[w] = w
            else:
                remap[w] = free.pop() if free else fresh()
        # rows whose last reader just ran become reusable from the next
        # primitive on (never within one: chain continuations must keep
        # reading the original operand rows)
        for rr in set(reads) | {w}:
            if rr in pinned:
                continue
            if last_read.get(rr, -1) == i:
                free.append(remap[rr])

    phys_steps: list[tuple] = []
    for st in steps:
        if st[0] == "b":
            _, op, a, b, o = st
            phys_steps.append(("b", op, remap[a], remap[b], remap[o]))
        else:
            phys_steps.append((st[0], remap[st[1]], remap[st[2]]))

    max_row = n_sources - 1
    for rid in remap.values():
        if rid > max_row:
            max_row = rid
    for rr in reserved:
        if rr > max_row:
            max_row = rr
    out_pairs = [(remap.get(sr, sr), pol) for sr, pol in out_abstract]
    for sr, _ in out_pairs:
        if sr > max_row:
            max_row = sr

    return _Program(
        steps=phys_steps,
        n_rows=max_row + 1,
        out_pairs=out_pairs,
        const0_rows=np.array(engine._const0_idx, dtype=np.int64),
        const1_rows=np.array(engine._const1_idx, dtype=np.int64),
    )


class _Plan:
    """A program bound to a concrete arena width: zero-alloc execution."""

    __slots__ = ("V", "bound", "program", "n_cols")

    def __init__(self, program: _Program, n_cols: int) -> None:
        self.program = program
        self.n_cols = n_cols
        V = np.empty((program.n_rows, n_cols), dtype=np.uint64)
        if program.const0_rows.size:
            V[program.const0_rows] = 0
        if program.const1_rows.size:
            V[program.const1_rows] = _ALL_ONES
        bound: list[tuple] = []
        for st in program.steps:
            if st[0] == "b":
                _, op, a, b, o = st
                bound.append((op, (V[a], V[b], V[o])))
            else:  # "u"
                bound.append((np.invert, (V[st[1]], V[st[2]])))
        self.V = V
        self.bound = bound

    def execute(self) -> None:
        for f, args in self.bound:
            f(*args)

    def extract(self) -> np.ndarray:
        V = self.V
        pairs = self.program.out_pairs
        outs = np.empty((len(pairs), self.n_cols), dtype=np.uint64)
        for i, (sr, pol) in enumerate(pairs):
            np.bitwise_xor(V[sr], _POL[pol], outs[i])
        return outs


def _plan_for(engine: Any, n_cols: int) -> _Plan:
    """Fetch (or build) the bound plan for an engine at a column width."""
    with _plan_lock:
        program = engine.__dict__.get("_fused_program")
        if program is None:
            program = _build_program(engine)
            engine.__dict__["_fused_program"] = program
            telemetry.counter_add("optape.plan.build")
        plans: "OrderedDict[int, _Plan]" = engine.__dict__.setdefault(
            "_fused_plans", OrderedDict()
        )
        plan = plans.get(n_cols)
        if plan is None:
            plan = _Plan(program, n_cols)
            plans[n_cols] = plan
            telemetry.counter_add("optape.plan.build")
        else:
            telemetry.counter_add("optape.plan.hit")
        plans.move_to_end(n_cols)
        while len(plans) > _PLANS_PER_ENGINE:
            plans.popitem(last=False)
        return plan


def run_outputs(
    engine: Any,
    input_words: Mapping[str, np.ndarray] | np.ndarray,
) -> np.ndarray:
    """Packed ``(n_outputs, n_words)`` outputs in netlist order."""
    nw, fills = engine.input_fills(input_words)
    plan = _plan_for(engine, nw)
    for row, words in fills:
        np.copyto(plan.V[row], words)
    with telemetry.span("optape.run", words=nw, groups=engine.n_groups):
        telemetry.counter_add("optape.words", nw)
        plan.execute()
        return plan.extract()


def run_keyed(
    engine: Any,
    data_inputs: Sequence[str],
    data_words: np.ndarray,
    key_inputs: Sequence[str],
    key_bits: np.ndarray,
) -> np.ndarray:
    """Packed ``(n_keys, n_outputs, n_words)`` lane-major outputs."""
    index = engine._index
    n_keys = key_bits.shape[0]
    nw = data_words.shape[1]
    plan = _plan_for(engine, n_keys * nw)
    V = plan.V
    for row, name in enumerate(data_inputs):
        np.copyto(V[index[name]].reshape(n_keys, nw), data_words[row][None, :])
    lane_words = np.where(key_bits.astype(bool), _ALL_ONES, np.uint64(0))
    for col, name in enumerate(key_inputs):
        np.copyto(V[index[name]].reshape(n_keys, nw), lane_words[:, col][:, None])
    with telemetry.span(
        "optape.run", words=n_keys * nw, lanes=n_keys, groups=engine.n_groups
    ):
        telemetry.counter_add("optape.words", n_keys * nw)
        plan.execute()
        outs = plan.extract()  # (n_outputs, n_keys * nw)
    return outs.reshape(outs.shape[0], n_keys, nw).transpose(1, 0, 2)
