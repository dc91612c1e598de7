"""Fused CPU planner: a compiled netlist lowered to straight-line ufunc calls.

An engine's compile-time gate snapshot (topological order, sources
first) is lowered, on first use and once per engine, into one of two
programs.  Both are lists of primitives — a single numpy ufunc call on
whole arena *rows* (``op(V[a], V[b], V[o])``), with no index arrays, no
gathers and no temporaries — and differ in what a row holds:

* **The fused program** serves
  :meth:`~repro.sim.optape.OpTapeEngine.run_outputs` and
  :meth:`~repro.sim.optape.OpTapeEngine.run_keyed`, which only need the
  outputs, so it rewrites the netlist aggressively:

  - *Alias + polarity tracking.*  BUF/NOT gates emit no code at all: the
    planner tracks each net as ``(storage_row, polarity)`` and lets
    consumers absorb the inversion.  XOR/XNOR absorb input polarities
    into the output polarity for free.
  - *Dual-form (De Morgan) selection.*  AND/NAND/OR/NOR gates whose
    inputs are mostly stored inverted switch to the dual reduction over
    the uncomplemented rows and flip the output polarity instead of
    materializing complements; the complements that remain are shared
    through a per-program cache.
  - *Reusable arena.*  The arena and the fully bound step list are
    cached per ``(engine, n_columns)``, so steady-state calls allocate
    nothing beyond the output block.

* **The materialized program** gives every net its own abstract row —
  the net's snapshot position — and lowers each gate to its own steps
  (BUF and NOT are copy and invert steps; a MUX is
  ``d0 ^ (s & (d0 ^ d1))``), so every net's true value is stored.  It
  serves :meth:`~repro.sim.optape.OpTapeEngine.run` with identity rows
  (the full value matrix) and the forced lanes with reused rows
  (:func:`forced_lane_diffs`).

Both programs share **live-range row reuse**: a greedy free-list
allocator remaps rows the moment their last reader runs (a primitive may
write in place over an operand it reads last), shrinking the arena far
below the net count (to 13–16% of it on the Table I stand-ins).

**Forced lanes** re-simulate one pattern block once per lane with one
net overridden.  Lanes are sorted by forced net and cut into chunks
whose reused-row arena (rows × lanes × words) fits
``optape._LANE_CHUNK_BYTES``.  A chunk runs only the steps of nets in
the union of its lanes' fanout cones: every other net keeps its
unforced value, so an operand outside the union is read as a broadcast
row of the unforced matrix, and outputs outside it cannot differ.  The
union is a walk over fanout lists, in time proportional to its size.

The differential suites check both programs bit for bit against the
:class:`~repro.sim.bitsim.BitSimulator` oracle.  A bound fused plan owns
its arena, so one engine must not run the same column width from two
threads at once; :func:`run_values` and the forced lanes allocate per
call.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Iterator, Mapping, Sequence

import numpy as np

from .. import telemetry
from ..netlist import GateType
from .bitsim import tail_mask

_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)
_POL = (np.uint64(0), _ALL_ONES)

_AND = np.bitwise_and
_OR = np.bitwise_or
_XOR = np.bitwise_xor
_INV = np.invert
_COPY = np.positive

#: ``(base reduction, output inverted)`` per logic gate type; BUF and
#: NOT have no reduction (the fused program aliases their fan-in's row)
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

#: one primitive: ``o <- a op b``, or ``o <- op(a)`` when ``b`` is -1
_Step = tuple[np.ufunc, int, int, int]


def _gate_steps(gtype: GateType, srcs: Sequence[int], o: int) -> list[_Step]:
    """The materialized primitives of one gate: steps that leave
    ``gtype(srcs)`` in row ``o``, every one of them writing ``o``."""
    if gtype is GateType.MUX:
        s, d0, d1 = srcs  # MUX(s, d0, d1) == d0 ^ (s & (d0 ^ d1))
        return [(_XOR, d0, d1, o), (_AND, o, s, o), (_XOR, o, d0, o)]
    base, inv = _LOWERED[gtype]
    if base is None or len(srcs) == 1:  # BUF/NOT, or a 1-input gate
        return [(_INV if inv else _COPY, srcs[0], -1, o)]
    steps = [(base, srcs[0], srcs[1], o)]
    steps += [(base, o, e, o) for e in srcs[2:]]
    if inv:
        steps.append((_INV, o, -1, o))
    return steps


def eval_gate(gtype: GateType, operands: Sequence[np.ndarray]) -> np.ndarray:
    """Out-of-place gate evaluation on same-shape operand arrays, with
    the materialized program's primitives (a batch of gates of one type
    and arity: operand ``s`` stacks slot ``s`` of every gate)."""
    rows = [*operands, np.empty_like(operands[0])]
    for op, a, b, o in _gate_steps(gtype, range(len(operands)), len(operands)):
        if b < 0:
            op(rows[a], rows[o])
        else:
            op(rows[a], rows[b], rows[o])
    return rows[-1]


def _remap(
    prims: Sequence[_Step],
    n_abstract: int,
    n_sources: int,
    pinned_rows: Sequence[int],
) -> tuple[list[int], int]:
    """Live-range row reuse: a physical row per abstract row, greedily
    reusing rows whose last reader has run.  Returns ``(remap,
    n_rows)``; sources and ``pinned_rows`` keep rows of their own."""
    last_read = [-1] * n_abstract
    for i, (_, a, b, _) in enumerate(prims):
        last_read[a] = i
        if b >= 0:
            last_read[b] = i
    pinned = bytearray(n_abstract)
    pinned[:n_sources] = b"\x01" * n_sources
    for r in pinned_rows:
        pinned[r] = 1

    # sources are read before any write and keep their rows
    remap = list(range(n_sources)) + [-1] * (n_abstract - n_sources)
    free: list[int] = []
    next_fresh = n_sources
    for i, (_, a, b, o) in enumerate(prims):
        # an operand this primitive reads last may become its own output
        # row: every primitive is one elementwise ufunc, safe in place
        if last_read[a] == i and not pinned[a] and a != o:
            free.append(remap[a])
        if b >= 0 and b != a and b != o and last_read[b] == i and not pinned[b]:
            free.append(remap[b])
        if remap[o] < 0:
            if free:
                remap[o] = free.pop()
            else:
                remap[o] = next_fresh
                next_fresh += 1
        if last_read[o] == i and not pinned[o]:
            free.append(remap[o])
    return remap, next_fresh


class _Program:
    """Column-width-independent fused lowering of one engine's netlist.

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
        steps: list[_Step],
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

    @property
    def n_steps(self) -> int:
        return len(self.steps)


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
    prims: list[_Step] = []
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
    # output storage rows and the MUX temp row are never reused
    pinned = [sr for sr, _ in out_abstract] + ([tmp_row] if tmp_row >= 0 else [])
    remap, n_rows = _remap(prims, next_row, n_sources, pinned)
    return _Program(
        steps=[
            (op, remap[a], remap[b] if b >= 0 else -1, remap[o])
            for op, a, b, o in prims
        ],
        n_rows=n_rows,
        out_pairs=[(remap[sr], pol) for sr, pol in out_abstract],
        const0_rows=np.array(engine._const0_idx, dtype=np.int64),
        const1_rows=np.array(engine._const1_idx, dtype=np.int64),
    )


class _Materialized:
    """The materialized lowering: one abstract row per net.

    ``net_steps[r]`` are net ``r``'s primitives ``(op, a, b, r)`` over
    net rows (empty for sources); ``fanout[r]`` lists the nets reading
    ``r``.  ``phys[r]`` is net ``r``'s row in the reused forced-lane
    arena of ``n_rows`` rows.
    """

    __slots__ = ("net_steps", "n_steps", "fanout", "phys", "n_rows", "out_nets")

    def __init__(self, engine: Any) -> None:
        gates = engine._gates
        n_sources = engine._n_sources
        n_nets = len(gates)
        index = engine._index
        net_steps: list[tuple[_Step, ...]] = [()] * n_nets
        fanout: list[list[int]] = [[] for _ in range(n_nets)]
        prims: list[_Step] = []
        for r in range(n_sources, n_nets):
            g = gates[r]
            srcs = [index[f] for f in g.fanin]
            for f in srcs:  # a repeated fan-in is listed twice; harmless
                fanout[f].append(r)
            steps = _gate_steps(g.gtype, srcs, r)
            prims += steps
            net_steps[r] = tuple(steps)
        self.net_steps = net_steps
        self.n_steps = len(prims)
        self.fanout = [tuple(f) for f in fanout]
        self.out_nets = [index[o] for o in engine.outputs]
        self.phys, self.n_rows = _remap(prims, n_nets, n_sources, self.out_nets)


class _Plan:
    """A fused program bound to a concrete arena width: zero-alloc
    execution."""

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


def _lowered(
    engine: Any, attr: str, lowering: str, build: Callable[[Any], Any]
) -> Any:
    """The engine's program ``attr``, lowered from its gate snapshot
    once, on first use, under the plan lock."""
    program = engine.__dict__.get(attr)
    if program is not None:
        return program
    with _plan_lock:
        program = engine.__dict__.get(attr)
        if program is None:
            with telemetry.span(
                "optape.lower", lowering=lowering, nets=engine.n_nets
            ) as sp:
                program = build(engine)
                sp.set(steps=program.n_steps)
            engine.__dict__[attr] = program
            telemetry.counter_add("optape.plan.build")
        return program


def program_for(engine: Any) -> _Program:
    """The engine's fused program, lowered from its gate snapshot once,
    on first use (or ahead of it: supervised workers pre-warm with it)."""
    return _lowered(engine, "_fused_program", "fused", _build_program)


def materialized_for(engine: Any) -> _Materialized:
    """The engine's materialized program, lowered once, on first use."""
    return _lowered(engine, "_materialized_program", "materialized", _Materialized)


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


def run_values(
    engine: Any, input_words: Mapping[str, np.ndarray] | np.ndarray
) -> np.ndarray:
    """The full ``(n_nets, n_words)`` value matrix, row ``r`` holding the
    snapshot's net ``r``: the materialized program on identity rows."""
    nw, fills = engine.input_fills(input_words)
    program = materialized_for(engine)
    values = np.empty((engine.n_nets, nw), dtype=np.uint64)
    values[engine._const0_idx] = 0
    values[engine._const1_idx] = _ALL_ONES
    for row, words in fills:
        values[row] = words
    rows = list(values)
    net_steps = program.net_steps
    with telemetry.span("optape.run", words=nw, steps=program.n_steps):
        telemetry.counter_add("optape.words", nw)
        for r in range(engine._n_sources, engine.n_nets):
            o = rows[r]
            for op, a, b, _ in net_steps[r]:
                if b < 0:
                    op(rows[a], o)
                else:
                    op(rows[a], rows[b], o)
    return values


def forced_lane_diffs(
    engine: Any,
    good: np.ndarray,
    rows: np.ndarray,
    forced_words: np.ndarray,
    n_patterns: int,
    chunk_bytes: int,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield ``(lanes, diff)`` per lane chunk: ``diff`` is the
    tail-masked ``(k, len(lanes), n_words)`` XOR against ``good`` of the
    ``k`` outputs inside the chunk's cone union (the others cannot
    differ), for the caller's lane indices ``lanes``.

    ``rows`` are net rows (snapshot positions), ``forced_words`` their
    ``(L, n_words)`` forces, ``good`` the unforced :func:`run_values`
    matrix; each chunk's reused-row arena holds at most ``chunk_bytes``
    (or one lane).
    """
    program = materialized_for(engine)
    n_lanes = rows.shape[0]
    nw = good.shape[1]
    n_rows = program.n_rows
    chunk = max(1, chunk_bytes // (n_rows * nw * 8))
    order = np.argsort(rows, kind="stable")
    sorted_rows = rows[order].tolist()
    net_steps, fanout, phys = program.net_steps, program.fanout, program.phys
    out_nets = program.out_nets
    out_phys = np.array([phys[r] for r in out_nets], dtype=np.int64)
    good_out = good[out_nets][:, None, :]
    mask = tail_mask(n_patterns)
    # src[r] is what a step reads for net r: its arena row inside the
    # chunk's cone union, its broadcast unforced row outside it
    good_rows = list(good[:, None, :])
    src = list(good_rows)
    n_chunks = -(-n_lanes // chunk)
    buf = np.empty(n_rows * min(chunk, n_lanes) * nw, dtype=np.uint64)
    arena_rows: list[np.ndarray] = []
    rows_width = 0
    skipped = 0
    with telemetry.span(
        "optape.run",
        words=n_lanes * nw,
        lanes=n_lanes,
        chunks=n_chunks,
        arena_bytes=buf.nbytes,
    ):
        telemetry.counter_add("optape.words", n_lanes * nw)
        for lo in range(0, n_lanes, chunk):
            hi = min(lo + chunk, n_lanes)
            width = hi - lo
            V = buf[: n_rows * width * nw].reshape(n_rows, width, nw)
            if width != rows_width:  # the last chunk may be narrower
                arena_rows, rows_width = list(V), width
            words = forced_words[order[lo:hi]]
            # lanes forcing one net are adjacent: (first, last + 1) each
            span_of: dict[int, tuple[int, int]] = {}
            for k, r in enumerate(sorted_rows[lo:hi]):
                first = span_of.get(r, (k, k))[0]
                span_of[r] = (first, k + 1)
            # the cone union, one fanout level per round
            reached = frontier = set(span_of)
            while frontier:
                frontier = set().union(*map(fanout.__getitem__, frontier))
                frontier -= reached
                reached |= frontier
            union = sorted(reached)
            for r in union:
                src[r] = arena_rows[phys[r]]
            executed = 0
            for r in union:
                o = src[r]
                steps = net_steps[r]
                if steps:
                    executed += len(steps)
                    for op, a, b, _ in steps:
                        if b < 0:
                            op(src[a], o)
                        else:
                            op(src[a], src[b], o)
                else:  # a forced source: unforced in every lane, first
                    o[...] = good_rows[r]
                hit = span_of.get(r)
                if hit is not None:
                    o[hit[0] : hit[1]] = words[hit[0] : hit[1]]
            skipped += program.n_steps - executed
            sel = [j for j, r in enumerate(out_nets) if r in reached]
            diff = V[out_phys[sel]]
            np.bitwise_xor(diff, good_out[sel], out=diff)
            diff[:, :, -1] &= mask
            for r in union:
                src[r] = good_rows[r]
            yield order[lo:hi], diff
        telemetry.counter_add("optape.forced.steps_skipped", skipped)
