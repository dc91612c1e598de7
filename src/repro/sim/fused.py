"""Fused CPU lane: a compiled netlist lowered to straight-line ufunc calls.

An engine's first :meth:`~repro.sim.optape.OpTapeEngine.run_outputs` or
:meth:`~repro.sim.optape.OpTapeEngine.run_keyed` lowers its compile-time
gate snapshot (topological order, sources first) in one pass, without
the grouped tape :mod:`repro.sim.optape` builds for its other entry
points.  The grouped evaluator pays two costs per tape group that
dominate its runtime on large circuits: fancy-index *gathers* (which run
well below streaming bandwidth and allocate an ``(arity, group,
n_cols)`` temporary per group) and Python dispatch that cannot see
across group boundaries.  This lane avoids both:

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
  through a per-program cache.
* **Live-range row reuse.**  A greedy free-list allocator remaps rows
  the moment their last reader runs (a primitive may write in place
  over an operand it reads last), shrinking the scratch arena far below
  the net count (about a fifth of it on the Table I stand-ins).
* **Reusable arena.**  The program is built once per engine, and the
  arena and the fully bound step list are cached per ``(engine,
  n_columns)`` — steady-state calls do zero allocation beyond the
  output block.

This is the one execution lane of ``run_outputs`` and ``run_keyed``,
and the differential suite checks it bit for bit against the
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
_INV = np.invert

#: ``(base reduction, output inverted)`` per logic gate type; BUF and
#: NOT have no reduction (they alias their fan-in's row)
_LOWERED: dict[GateType, tuple[np.ufunc | None, int]] = {
    GateType.BUF: (None, 0),
    GateType.NOT: (None, 1),
    GateType.AND: (_AND, 0),
    GateType.NAND: (_AND, 1),
    GateType.OR: (_OR, 0),
    GateType.NOR: (_OR, 1),
    GateType.XOR: (_XOR, 0),
    GateType.XNOR: (_XOR, 1),
}

#: bound plans kept per engine — metrics chunking plus a bench lane or
#: two; beyond this the least recently used arena is dropped
_PLANS_PER_ENGINE = 6

_plan_lock = threading.Lock()


class _Program:
    """Column-width-independent lowering of one engine's netlist.

    ``steps`` hold *physical* arena rows (post live-range remap), one
    primitive each::

        (op, a, b, o)           o <- a op b
        (np.invert, s, -1, o)   o <- ~s
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
        steps: list[tuple[np.ufunc, int, int, int]],
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
    """Lower the engine's gate snapshot to primitives, then remap rows.

    Abstract rows ``0 .. n_nets - 1`` are the snapshot's nets in its
    topological order (sources first, so they keep the engine's source
    rows); complement rows and the one MUX temp row follow.
    """
    gates = engine._gates
    n_sources = engine._n_sources
    n_nets = len(gates)
    row_of = {g.name: i for i, g in enumerate(gates)}
    # where each net's value lives: storage row, and 1 if stored inverted
    loc_row = list(range(n_nets))
    loc_pol = [0] * n_nets
    # abstract primitives (op, a, b, o): o <- op(a, b), or o <- ~a when
    # op is np.invert and b is -1
    prims: list[tuple[np.ufunc, int, int, int]] = []
    emit = prims.append
    comp_of: dict[int, int] = {}
    next_row = n_nets
    tmp_row = -1

    def comp(sr: int) -> int:
        """Materialized complement of a storage row (cached)."""
        nonlocal next_row
        c = comp_of.get(sr)
        if c is None:
            c = comp_of[sr] = next_row
            next_row += 1
            emit((_INV, sr, -1, c))
        return c

    for r in range(n_sources, n_nets):
        g = gates[r]
        gtype = g.gtype
        srcs = [row_of[f] for f in g.fanin]
        if gtype is GateType.MUX:
            s_row, s_pol = loc_row[srcs[0]], loc_pol[srcs[0]]
            d0, p0 = loc_row[srcs[1]], loc_pol[srcs[1]]
            d1, p1 = loc_row[srcs[2]], loc_pol[srcs[2]]
            if s_pol:  # MUX(~s, d0, d1) == MUX(s, d1, d0)
                d0, p0, d1, p1 = d1, p1, d0, p0
            if p0:
                d0 = comp(d0)
            if p1:
                d1 = comp(d1)
            if tmp_row < 0:
                tmp_row = next_row
                next_row += 1
            emit((_INV, s_row, -1, tmp_row))
            emit((_AND, d0, tmp_row, tmp_row))
            emit((_AND, d1, s_row, r))
            emit((_OR, r, tmp_row, r))
            continue
        base, inv = _LOWERED[gtype]
        if base is None or len(srcs) == 1:  # BUF/NOT, or a 1-input gate
            loc_row[r] = loc_row[srcs[0]]
            loc_pol[r] = loc_pol[srcs[0]] ^ inv
            continue
        pols = [loc_pol[s] for s in srcs]
        n_inverted = sum(pols)
        if base is _XOR:
            op = _XOR
            pol = inv ^ (n_inverted & 1)
            eff = [loc_row[s] for s in srcs]
        elif 2 * n_inverted > len(srcs):
            # dual form: op(x...) == ~dual(~x...); most inputs are
            # already stored inverted, so this minimizes complement
            # materializations
            op = _OR if base is _AND else _AND
            pol = 1 ^ inv
            eff = [loc_row[s] if p else comp(loc_row[s]) for s, p in zip(srcs, pols)]
        else:
            op = base
            pol = inv
            eff = [comp(loc_row[s]) if p else loc_row[s] for s, p in zip(srcs, pols)]
        emit((op, eff[0], eff[1], r))
        for e in eff[2:]:
            emit((op, r, e, r))
        loc_pol[r] = pol

    out_abstract = [(loc_row[i], loc_pol[i]) for i in map(row_of.get, engine.outputs)]

    # ---- live-range remap: greedy free-list reuse of dead rows ---- #
    last_read = [-1] * next_row
    for i, (_, a, b, _) in enumerate(prims):
        last_read[a] = i
        if b >= 0:
            last_read[b] = i
    # sources, output storage rows and the MUX temp row are never reused
    pinned = bytearray(next_row)
    pinned[:n_sources] = b"\x01" * n_sources
    for sr, _ in out_abstract:
        pinned[sr] = 1
    if tmp_row >= 0:
        pinned[tmp_row] = 1

    # sources are read before any write and keep their rows
    remap = list(range(n_sources)) + [-1] * (next_row - n_sources)
    free: list[int] = []
    next_fresh = n_sources
    steps: list[tuple[np.ufunc, int, int, int]] = []
    for i, (op, a, b, o) in enumerate(prims):
        # an operand this primitive reads last may become its own output
        # row: every primitive is one elementwise ufunc, safe in place
        if last_read[a] == i and not pinned[a] and a != o:
            free.append(remap[a])
        if b >= 0 and b != a and b != o and last_read[b] == i and not pinned[b]:
            free.append(remap[b])
        w = remap[o]
        if w < 0:
            if free:
                w = remap[o] = free.pop()
            else:
                w = remap[o] = next_fresh
                next_fresh += 1
        steps.append((op, remap[a], remap[b] if b >= 0 else -1, w))
        if last_read[o] == i and not pinned[o]:
            free.append(w)

    return _Program(
        steps=steps,
        n_rows=next_fresh,
        out_pairs=[(remap[sr], pol) for sr, pol in out_abstract],
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
        self.V = V
        rows = list(V)  # one view per arena row, shared by every step
        self.bound = [
            (op, (rows[a], rows[o]) if b < 0 else (rows[a], rows[b], rows[o]))
            for op, a, b, o in program.steps
        ]

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


def program_for(engine: Any) -> _Program:
    """The engine's fused program, lowered from its gate snapshot once,
    on first use (or ahead of it: supervised workers pre-warm with it)."""
    program = engine.__dict__.get("_fused_program")
    if program is not None:
        return program
    with _plan_lock:
        program = engine.__dict__.get("_fused_program")
        if program is None:
            with telemetry.span(
                "optape.lower", lowering="fused", nets=engine.n_nets
            ) as sp:
                program = _build_program(engine)
                sp.set(steps=len(program.steps))
            engine.__dict__["_fused_program"] = program
            telemetry.counter_add("optape.plan.build")
        return program


def _plan_for(engine: Any, n_cols: int) -> _Plan:
    """Fetch (or build) the bound plan for an engine at a column width."""
    program = program_for(engine)
    with _plan_lock:
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
    with telemetry.span("optape.run", words=nw, steps=len(plan.bound)):
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
    index = engine._source_idx
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
        "optape.run", words=n_keys * nw, lanes=n_keys, steps=len(plan.bound)
    ):
        telemetry.counter_add("optape.words", n_keys * nw)
        plan.execute()
        outs = plan.extract()  # (n_outputs, n_keys * nw)
    return outs.reshape(outs.shape[0], n_keys, nw).transpose(1, 0, 2)
