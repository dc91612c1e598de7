"""Levelized op-tape simulation engine.

:class:`~repro.sim.bitsim.BitSimulator` evaluates one gate per Python
iteration — fine for a handful of runs, but the paper's Table I workload
("a few hundreds of thousands of patterns" per circuit, repeated per wrong
key) executes that loop tens of thousands of times.  This module compiles
a netlist once into an **op-tape**: gates are grouped by
``(level, gate type, fan-in arity)`` — with a latest-join relaxation
that lets a gate join the most recent compatible group at or after its
ready level — and each group carries precomputed ``int64`` index arrays,
so it evaluates as a single vectorized numpy bitwise reduction.  The
number of Python-level operations per pass drops from *#gates* to
*#groups* (typically one to two orders of magnitude fewer).

Three engineering choices keep the hot loop memory-lean:

* **Group-contiguous row order** — the value matrix is laid out so every
  group's output nets fill one contiguous row slice.  Each group's
  reduction writes *directly into the matrix* (``out=`` views) instead of
  gather-compute-scatter, eliminating one full copy per group.  Row
  indices therefore differ from :class:`BitSimulator`'s topological
  order; always map through :meth:`OpTapeEngine.net_index`.
* **Key lanes** — :meth:`OpTapeEngine.run_keyed` widens the word axis to
  ``n_keys * n_words``: lane ``k`` holds the same packed input patterns
  with key ``k`` broadcast as constant words.  One pass computes the
  outputs under every key simultaneously; Hamming distance then reduces
  per lane (see :func:`repro.sim.metrics.measure_corruption`).
* **Forced lanes** — :meth:`OpTapeEngine.count_output_flips` is the
  dual of key lanes: lane ``k`` shares the unforced pass's input words
  but overrides one row with its own forced words, and the pass reports
  per lane how many output bits moved.  Lock-site ranking (flip one net
  per lane) and stuck-at fault simulation (one fault per lane) both run
  on it, a few chunked passes instead of one pass per net or fault.
* **Compile cache** — :func:`compile_engine` memoizes engines by netlist
  *content hash*, so repeated experiment rows, the lock-site ranking and
  the fault simulator reuse the tape instead of recompiling.

:meth:`OpTapeEngine.run_outputs` and :meth:`OpTapeEngine.run_keyed`
execute the tape on the fused lane (:mod:`repro.sim.fused`); the grouped
evaluator here serves :meth:`OpTapeEngine.run` (the full value matrix)
and the forced lanes.  :class:`BitSimulator` is the one reference: the
slow, obviously-correct oracle that the differential suites compare
every lane against bit for bit.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from .. import telemetry
from ..netlist import GateType, Netlist
from . import fused
from .bitsim import popcount_lanes, tail_mask

_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)

#: value-matrix bytes per forced-lane chunk: small enough that a chunk's
#: matrix and its gather temporaries stay cache-resident and peak memory
#: does not move, large enough that the per-group dispatch is amortized
#: over many lanes
_LANE_CHUNK_BYTES = 2 << 20


@dataclass(frozen=True)
class OpGroup:
    """One tape entry: same-type, same-arity gates sharing a schedule slot.

    Attributes:
        level: schedule slot of the group — every fan-in of every member
            lives in an earlier slot.
        gtype: the shared gate function.
        start: first output row of the group (rows are contiguous).
        stop: one past the last output row.
        fanin_idx: ``(arity, n)`` int64 row indices of the fan-ins;
            ``fanin_idx[s][g]`` feeds slot ``s`` of gate ``g``.
    """

    level: int
    gtype: GateType
    start: int
    stop: int
    fanin_idx: np.ndarray

    @property
    def size(self) -> int:
        """Number of gates evaluated by this tape entry."""
        return self.stop - self.start


class OpTapeEngine:
    """Compiled levelized evaluator for one netlist.

    The constructor snapshots everything it needs from the netlist and
    keeps no reference to it: :func:`compile_engine` shares one engine
    between every netlist with the same content hash, so an engine must
    not observe later mutations of the netlist it was compiled from.
    """

    def __init__(self, netlist: Netlist) -> None:
        #: primary inputs in netlist order, frozen at compile time
        self.inputs: tuple[str, ...] = tuple(netlist.inputs)
        topo = netlist.topological_order()

        # Relaxed (latest-join) levelization: a gate is *ready* one slot
        # after its deepest fan-in, but may join any group of its
        # (type, arity) scheduled at-or-after that slot — merging what
        # strict per-level grouping would fragment.  New groups always
        # open after every existing one, so creation order is execution
        # order.
        slot_of: dict[str, int] = {}
        latest: dict[tuple[GateType, int], int] = {}
        group_names: dict[int, list[str]] = {}
        group_type: dict[int, GateType] = {}
        sources: list[str] = []
        next_slot = 0
        for n in topo:
            g = netlist.gate(n)
            if g.gtype.is_source:
                slot_of[n] = 0
                sources.append(n)
                continue
            ready = 1 + max(slot_of[f] for f in g.fanin)
            key = (g.gtype, len(g.fanin))
            s = latest.get(key, -1)
            if s < ready:
                next_slot += 1
                s = next_slot
                latest[key] = s
                group_names[s] = []
                group_type[s] = g.gtype
            slot_of[n] = s
            group_names[s].append(n)

        schedule: list[tuple[int, GateType, list[str]]] = [
            (s, group_type[s], group_names[s]) for s in sorted(group_names)
        ]

        order: list[str] = list(sources)
        for _lv, _gt, names in schedule:
            order.extend(names)
        self._order = order
        self._index = {n: i for i, n in enumerate(order)}
        self._input_idx = [self._index[i] for i in self.inputs]
        self._output_idx = np.array(
            [self._index[o] for o in netlist.outputs], dtype=np.int64
        )
        self._const0_idx = [
            self._index[n]
            for n in sources
            if netlist.gate(n).gtype is GateType.CONST0
        ]
        self._const1_idx = [
            self._index[n]
            for n in sources
            if netlist.gate(n).gtype is GateType.CONST1
        ]
        self._n_sources = len(sources)

        self._tape: list[OpGroup] = []
        row = len(sources)
        for lv, gtype, names in schedule:
            fanin_idx = np.array(
                [
                    [self._index[f] for f in netlist.gate(n).fanin]
                    for n in names
                ],
                dtype=np.int64,
            ).T
            self._tape.append(OpGroup(lv, gtype, row, row + len(names), fanin_idx))
            row += len(names)

    # ------------------------------------------------------------------ #
    # introspection

    @property
    def n_nets(self) -> int:
        """Number of nets in the compiled order."""
        return len(self._order)

    @property
    def n_groups(self) -> int:
        """Number of tape entries (Python-level ops per pass)."""
        return len(self._tape)

    def net_index(self, name: str) -> int:
        """Row index of a net in the value matrix (engine order — NOT
        the topological order :class:`BitSimulator` uses)."""
        return self._index[name]

    def outputs_from_matrix(self, values: np.ndarray) -> np.ndarray:
        """Slice the output rows out of a full value matrix."""
        return values[self._output_idx]

    # ------------------------------------------------------------------ #
    # evaluation

    def _alloc(self, n_cols: int) -> np.ndarray:
        """Fresh value matrix: only rows that may be read before being
        written (constants) need pre-clearing."""
        return self._preset(np.empty((self.n_nets, n_cols), dtype=np.uint64))

    def _preset(self, values: np.ndarray) -> np.ndarray:
        """Write the rows of ``values`` that are read before written."""
        if self._const0_idx:
            values[self._const0_idx] = 0
        if self._const1_idx:
            values[self._const1_idx] = _ALL_ONES
        return values

    def input_fills(
        self, input_words: Mapping[str, np.ndarray] | np.ndarray
    ) -> tuple[int, list[tuple[int, np.ndarray]]]:
        """Validate packed input patterns and pair each with its row.

        ``input_words`` is a mapping input-name -> word array, or a
        ``(n_inputs, n_words)`` array in :attr:`inputs` order.  Returns
        ``(n_words, [(row, words), ...])``; every execution lane fills
        its value matrix from this list.
        """
        if isinstance(input_words, np.ndarray):
            if input_words.shape[0] != len(self._input_idx):
                raise ValueError(
                    f"expected {len(self._input_idx)} input rows, "
                    f"got {input_words.shape[0]}"
                )
            return input_words.shape[1], list(zip(self._input_idx, input_words))
        arrays = list(input_words.values())
        if not arrays:
            raise ValueError("no input patterns supplied")
        fills = []
        for name in self.inputs:
            if name not in input_words:
                raise ValueError(f"missing patterns for input {name!r}")
            fills.append((self._index[name], input_words[name]))
        return arrays[0].shape[0], fills

    def _eval_tape(self, values: np.ndarray) -> np.ndarray:
        for group in self._tape:
            _eval_group(group, values)
        return values

    def run(self, input_words: Mapping[str, np.ndarray] | np.ndarray) -> np.ndarray:
        """Simulate packed patterns; returns the ``(n_nets, n_cols)``
        value matrix — same semantics as :meth:`BitSimulator.run` but
        with rows in engine order: index via :meth:`net_index`.
        """
        nw, fills = self.input_fills(input_words)
        values = self._alloc(nw)
        for row, words in fills:
            values[row] = words
        with telemetry.span("optape.run", words=nw, groups=self.n_groups):
            telemetry.counter_add("optape.words", nw)
            return self._eval_tape(values)

    def run_outputs(
        self, input_words: Mapping[str, np.ndarray] | np.ndarray
    ) -> np.ndarray:
        """Like :meth:`run` but returns only ``(n_outputs, n_cols)`` in
        ``netlist.outputs`` order, computed on the fused lane
        (:mod:`repro.sim.fused`)."""
        return fused.run_outputs(self, input_words)

    def count_output_flips(
        self,
        good: np.ndarray,
        rows: Sequence[int] | np.ndarray,
        forced_words: np.ndarray,
        n_patterns: int,
    ) -> np.ndarray:
        """Per-lane output corruption when one row is forced per lane.

        Lane ``k`` re-simulates the patterns of ``good`` with row
        ``rows[k]`` overridden by ``forced_words[k]`` — the semantics of
        :meth:`BitSimulator.run` with ``forced={net: forced_words[k]}``.
        Lanes are laid side by side on the word axis (like
        :meth:`run_keyed`) and evaluated in chunks of at most
        ``_LANE_CHUNK_BYTES`` of value matrix.

        Args:
            good: the unforced ``(n_nets, n_words)`` value matrix, as
                returned by :meth:`run` (it supplies every lane's input
                words and the reference outputs).
            rows: ``(L,)`` engine row per lane (see :meth:`net_index`).
            forced_words: ``(L, n_words)`` value each lane forces.
            n_patterns: valid patterns; bits past it in the last word
                are not counted.

        Returns:
            ``(L,)`` int64: output bits (over all outputs and valid
            patterns) that differ from the unforced pass, per lane.
        """
        counts = np.zeros(len(rows), dtype=np.int64)
        for lo, hi, diff in self._forced_lane_diffs(
            good, rows, forced_words, n_patterns
        ):
            counts[lo:hi] = popcount_lanes(diff.transpose(1, 0, 2))
        return counts

    def output_flip_masks(
        self,
        good: np.ndarray,
        rows: Sequence[int] | np.ndarray,
        forced_words: np.ndarray,
        n_patterns: int,
    ) -> np.ndarray:
        """Like :meth:`count_output_flips`, but returns ``(L, n_words)``
        pattern masks: bit ``i`` of lane ``k`` is set when pattern ``i``
        flips at least one output under lane ``k``'s force."""
        masks = np.zeros((len(rows), good.shape[1]), dtype=np.uint64)
        for lo, hi, diff in self._forced_lane_diffs(
            good, rows, forced_words, n_patterns
        ):
            np.bitwise_or.reduce(diff, axis=0, out=masks[lo:hi])
        return masks

    def _forced_lane_diffs(
        self,
        good: np.ndarray,
        rows: Sequence[int] | np.ndarray,
        forced_words: np.ndarray,
        n_patterns: int,
    ) -> Iterator[tuple[int, int, np.ndarray]]:
        """Yield ``(lo, hi, diff)`` per lane chunk: ``diff`` is the
        tail-masked ``(n_outputs, hi - lo, n_words)`` XOR of each lane's
        outputs against the unforced outputs."""
        rows = np.asarray(rows, dtype=np.int64)
        forced_words = np.asarray(forced_words, dtype=np.uint64)
        n_lanes = rows.shape[0]
        nw = good.shape[1]
        if forced_words.shape != (n_lanes, nw):
            raise ValueError(
                f"forced_words must be ({n_lanes}, {nw}), got {forced_words.shape}"
            )
        # tape position after which each lane's override is re-written;
        # -1 for source rows (written once, before the tape)
        stops = np.array([g.stop for g in self._tape], dtype=np.int64)
        group_of = np.where(
            rows < self._n_sources, -1, np.searchsorted(stops, rows, side="right")
        )
        good_in = good[self._input_idx][:, None, :]
        good_out = good[self._output_idx][:, None, :]
        mask = tail_mask(n_patterns)
        chunk = max(1, _LANE_CHUNK_BYTES // (self.n_nets * nw * 8))
        # one buffer serves every chunk, so peak memory holds one matrix
        buf = np.empty(self.n_nets * min(chunk, n_lanes) * nw, dtype=np.uint64)
        with telemetry.span(
            "optape.run", words=n_lanes * nw, lanes=n_lanes, groups=self.n_groups
        ):
            telemetry.counter_add("optape.words", n_lanes * nw)
            for lo in range(0, n_lanes, chunk):
                hi = min(lo + chunk, n_lanes)
                lane_rows = rows[lo:hi]
                lane_words = forced_words[lo:hi]
                values = self._preset(
                    buf[: self.n_nets * (hi - lo) * nw].reshape(self.n_nets, -1)
                )
                v3 = values.reshape(self.n_nets, hi - lo, nw)
                v3[self._input_idx] = good_in
                # every force lands before the tape, the only write a
                # forced source row gets; a gate row is re-forced after
                # its group below
                v3[lane_rows, np.arange(hi - lo)] = lane_words
                after: dict[int, list[int]] = {}
                for lane, gi in enumerate(group_of[lo:hi].tolist()):
                    if gi >= 0:
                        after.setdefault(gi, []).append(lane)
                for gi, group in enumerate(self._tape):
                    _eval_group(group, values)
                    hit = after.get(gi)
                    if hit is not None:
                        v3[lane_rows[hit], hit] = lane_words[hit]
                diff = v3[self._output_idx]
                np.bitwise_xor(diff, good_out, out=diff)
                diff[:, :, -1] &= mask
                yield lo, hi, diff

    def run_keyed(
        self,
        data_inputs: Sequence[str],
        data_words: np.ndarray,
        key_inputs: Sequence[str],
        key_bits: np.ndarray,
    ) -> np.ndarray:
        """Evaluate the same pattern block under many keys in one pass,
        on the fused lane (:mod:`repro.sim.fused`).

        The word axis is widened to ``n_keys * n_words``: lane ``k``
        (columns ``k*n_words .. (k+1)*n_words``) carries the packed data
        patterns with key vector ``key_bits[k]`` broadcast as constant
        words on the key inputs.

        Args:
            data_inputs: non-key primary inputs, matching the rows of
                ``data_words``.
            data_words: ``(len(data_inputs), n_words)`` packed patterns,
                shared by every lane.
            key_inputs: key primary inputs, matching the columns of
                ``key_bits``.
            key_bits: ``(n_keys, len(key_inputs))`` 0/1 array.

        Returns:
            ``(n_keys, n_outputs, n_words)`` packed outputs, lane-major.
        """
        key_bits = np.asarray(key_bits, dtype=np.uint8)
        if key_bits.ndim != 2 or key_bits.shape[1] != len(key_inputs):
            raise ValueError(
                f"key_bits must be (n_keys, {len(key_inputs)}), "
                f"got {key_bits.shape}"
            )
        if data_words.shape[0] != len(data_inputs):
            raise ValueError(
                f"expected {len(data_inputs)} data rows, "
                f"got {data_words.shape[0]}"
            )
        driven = set(data_inputs) | set(key_inputs)
        missing = [i for i in self.inputs if i not in driven]
        if missing:
            raise ValueError(f"missing patterns for inputs {missing!r}")
        return fused.run_keyed(self, data_inputs, data_words, key_inputs, key_bits)


def _eval_group(group: OpGroup, values: np.ndarray) -> None:
    """Evaluate one tape entry straight into its output row slice."""
    gtype = group.gtype
    fan = group.fanin_idx
    out = values[group.start : group.stop]  # contiguous view, no copy
    if gtype is GateType.BUF:
        np.take(values, fan[0], axis=0, out=out)
        return
    if gtype is GateType.NOT:
        np.take(values, fan[0], axis=0, out=out)
        np.invert(out, out=out)
        return
    if gtype is GateType.MUX:
        s = values[fan[0]]
        np.bitwise_and(s, values[fan[2]], out=out)  # s & d1
        np.invert(s, out=s)
        np.bitwise_and(s, values[fan[1]], out=s)  # ~s & d0
        np.bitwise_or(out, s, out=out)
        return
    op = _REDUCE_OP[gtype]
    if fan.shape[0] == 2:
        np.take(values, fan[0], axis=0, out=out)
        op(out, values[fan[1]], out=out)
    else:
        # one fused gather + ufunc reduction beats a per-slot loop
        op.reduce(values[fan], axis=0, out=out)
    if gtype.is_inverting:
        np.invert(out, out=out)


def _eval_gathered(gtype: GateType, slots: list[np.ndarray]) -> np.ndarray:
    """Out-of-place group evaluation on pre-gathered fan-in slots."""
    if gtype is GateType.BUF:
        return slots[0]
    if gtype is GateType.NOT:
        return ~slots[0]
    if gtype is GateType.MUX:
        s, d0, d1 = slots
        return (s & d1) | (~s & d0)
    op = _REDUCE_OP[gtype]
    acc = slots[0]
    for extra in slots[1:]:
        op(acc, extra, out=acc)
    if gtype.is_inverting:
        np.invert(acc, out=acc)
    return acc


_REDUCE_OP = {
    GateType.AND: np.bitwise_and,
    GateType.NAND: np.bitwise_and,
    GateType.OR: np.bitwise_or,
    GateType.NOR: np.bitwise_or,
    GateType.XOR: np.bitwise_xor,
    GateType.XNOR: np.bitwise_xor,
}


# --------------------------------------------------------------------- #
# compile cache


def netlist_fingerprint(netlist: Netlist) -> str:
    """Content hash of a netlist's structure (name excluded).

    Two netlists with identical inputs, outputs, and gate definitions (in
    insertion order) share a fingerprint — and therefore a compiled
    engine.  The circuit name is deliberately excluded: it never affects
    simulation semantics.

    The digest is memoized on the netlist (hashing a large circuit costs
    milliseconds and the bench/metrics hot paths fingerprint on every
    call); any structural mutation clears the memo via
    :meth:`Netlist._invalidate`.
    """
    memo = getattr(netlist, "_fingerprint", None)
    if memo is not None:
        return memo
    h = hashlib.blake2b(digest_size=16)
    for name in netlist.inputs:
        h.update(b"i|" + name.encode())
    for name in netlist.outputs:
        h.update(b"o|" + name.encode())
    for name in netlist.nets:
        g = netlist.gate(name)
        h.update(b"g|" + name.encode() + b"|" + g.gtype.value.encode())
        for f in g.fanin:
            h.update(b"," + f.encode())
    digest = h.hexdigest()
    try:
        netlist._fingerprint = digest
    except AttributeError:  # pragma: no cover - exotic netlist stand-ins
        pass
    return digest


#: engines are a few int64 arrays the size of the netlist; keep a modest
#: number so long multi-circuit campaigns don't grow without bound
_CACHE_CAPACITY = 32

_cache_lock = threading.Lock()
_engine_cache: "OrderedDict[str, OpTapeEngine]" = OrderedDict()


def compile_engine(netlist: Netlist, cache: bool = True) -> OpTapeEngine:
    """Compile (or fetch a cached) :class:`OpTapeEngine` for a netlist.

    The cache key is :func:`netlist_fingerprint` — a *content* hash — so
    mutated netlists recompile automatically and identical circuits
    (e.g. repeated experiment rows at the same scale and seed) hit the
    cache even across distinct :class:`Netlist` objects.
    """
    if not cache:
        with telemetry.span("optape.compile", nets=len(netlist.nets), cached=False):
            return OpTapeEngine(netlist)
    key = netlist_fingerprint(netlist)
    with _cache_lock:
        engine = _engine_cache.get(key)
        if engine is not None:
            _engine_cache.move_to_end(key)
            telemetry.counter_add("optape.cache.hit")
            return engine
    telemetry.counter_add("optape.cache.miss")
    with telemetry.span("optape.compile", nets=len(netlist.nets), cached=True):
        engine = OpTapeEngine(netlist)
    with _cache_lock:
        _engine_cache[key] = engine
        _engine_cache.move_to_end(key)
        while len(_engine_cache) > _CACHE_CAPACITY:
            _engine_cache.popitem(last=False)
    return engine


def clear_engine_cache() -> None:
    """Drop every cached engine (benchmarks time cold compiles with this)."""
    with _cache_lock:
        _engine_cache.clear()


def engine_cache_info() -> dict[str, int]:
    """Current cache occupancy (diagnostics and tests)."""
    with _cache_lock:
        return {"size": len(_engine_cache), "capacity": _CACHE_CAPACITY}
