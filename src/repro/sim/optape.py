"""Compiled simulation engine.

:class:`~repro.sim.bitsim.BitSimulator` evaluates one gate per Python
iteration — fine for a handful of runs, but the paper's Table I workload
("a few hundreds of thousands of patterns" per circuit, repeated per wrong
key) executes that loop tens of thousands of times.  Compiling a netlist
(:func:`compile_engine`) only snapshots it: its inputs, outputs, and its
gates in topological order with the sources first.  The fused planner
(:mod:`repro.sim.fused`) lowers that snapshot into two programs, each
once, on first use, and most netlists only ever need one of them:

* **The fused program** serves :meth:`OpTapeEngine.run_outputs` and
  :meth:`OpTapeEngine.run_keyed`: it tracks BUF/NOT as row aliases with
  a polarity and keeps only what the outputs need.
* **The materialized program** stores every net: :meth:`OpTapeEngine.run`
  returns the full value matrix, one row per net in snapshot order
  (:meth:`OpTapeEngine.net_index` is the snapshot position), and the
  forced lanes run it on a reused-row arena.

Both programs give the sources the same rows (``0 .. n_sources - 1``).
The entry points:

* **Key lanes** — :meth:`OpTapeEngine.run_keyed` widens the word axis to
  ``n_keys * n_words``: lane ``k`` holds the same packed input patterns
  with key ``k`` broadcast as constant words.  One pass computes the
  outputs under every key simultaneously; Hamming distance then reduces
  per lane (see :func:`repro.sim.metrics.measure_corruption`).
* **Forced lanes** — :meth:`OpTapeEngine.count_output_flips` is the dual
  of key lanes: lane ``k`` shares the unforced pass's input words but
  overrides one net with its own forced words, and the pass reports per
  lane how many output bits moved.  Lanes are sorted by net and chunked
  by arena size, and each chunk evaluates only its lanes' fanout cones.
  Lock-site ranking (flip one net per lane) and stuck-at fault
  simulation (one fault per lane) both run on it, a few chunked passes
  instead of one pass per net or fault.
* **Compile cache** — :func:`compile_engine` memoizes engines by netlist
  *content hash*, so repeated experiment rows, the lock-site ranking and
  the fault simulator reuse the engine and its programs instead of
  recompiling.

:class:`BitSimulator` is the one reference: the slow, obviously-correct
oracle that the differential suites compare both programs against bit
for bit.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from functools import cached_property
from typing import Iterator, Mapping, Sequence

import numpy as np

from .. import telemetry
from ..netlist import Gate, GateType, Netlist
from . import fused
from .bitsim import popcount_lanes

#: reused-row arena bytes per forced-lane chunk: small enough that a
#: chunk's arena stays cache-resident and peak memory does not move,
#: large enough that each step's dispatch is amortized over many lanes
_LANE_CHUNK_BYTES = 2 << 20
#: lanes per forced-lane chunk at least, whatever the arena bytes: on a
#: paper-size circuit one lane's arena alone passes ``_LANE_CHUNK_BYTES``,
#: and one lane per chunk pays a fanout-cone walk and one dispatch per
#: step for every candidate net
_MIN_CHUNK_LANES = 64


class OpTapeEngine:
    """Compiled evaluator for one netlist.

    The constructor snapshots everything it needs from the netlist and
    keeps no reference to it: :func:`compile_engine` shares one engine
    between every netlist with the same content hash, so an engine must
    not observe later mutations of the netlist it was compiled from
    (``lock_weighted`` inserts key gates into the very netlist it has
    just ranked).  Gates are never changed in place, so the snapshot is
    one list of them.

    Compiling lowers nothing: each program is built once, on first use,
    from the snapshot — the materialized program by :meth:`run` and the
    forced lanes, the fused program by :meth:`run_outputs` or
    :meth:`run_keyed` (:mod:`repro.sim.fused`).  Most netlists only ever
    run on one of them.
    """

    def __init__(self, netlist: Netlist) -> None:
        #: primary inputs in netlist order, frozen at compile time
        self.inputs: tuple[str, ...] = tuple(netlist.inputs)
        #: primary outputs in netlist order, frozen at compile time
        self.outputs: tuple[str, ...] = tuple(netlist.outputs)
        gate = netlist.gate
        sources: list[Gate] = []
        logic: list[Gate] = []
        for n in netlist.topological_order():
            g = gate(n)
            (sources if g.gtype.is_source else logic).append(g)
        #: every gate in topological order, sources first: rows
        #: ``0 .. n_sources - 1`` of both programs are the sources
        self._gates: list[Gate] = sources + logic
        self._n_sources = len(sources)
        self._source_idx = {g.name: i for i, g in enumerate(sources)}
        self._input_idx = [self._source_idx[i] for i in self.inputs]
        self._const0_idx = [
            i for i, g in enumerate(sources) if g.gtype is GateType.CONST0
        ]
        self._const1_idx = [
            i for i, g in enumerate(sources) if g.gtype is GateType.CONST1
        ]

    @cached_property
    def _index(self) -> dict[str, int]:
        """Snapshot position of every net (built on first use)."""
        return {g.name: i for i, g in enumerate(self._gates)}

    # ------------------------------------------------------------------ #
    # introspection

    @property
    def n_nets(self) -> int:
        """Number of nets in the compiled netlist (rows of :meth:`run`'s
        value matrix)."""
        return len(self._gates)

    def net_index(self, name: str) -> int:
        """Row of a net in :meth:`run`'s value matrix: its position in
        the compile-time snapshot (sources first, then topological
        order — NOT the order :class:`BitSimulator` uses)."""
        return self._index[name]

    def outputs_from_matrix(self, values: np.ndarray) -> np.ndarray:
        """Slice the output rows out of a full value matrix."""
        return values[[self._index[o] for o in self.outputs]]

    # ------------------------------------------------------------------ #
    # evaluation

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
        for name, row in zip(self.inputs, self._input_idx):
            if name not in input_words:
                raise ValueError(f"missing patterns for input {name!r}")
            fills.append((row, input_words[name]))
        return arrays[0].shape[0], fills

    def run(self, input_words: Mapping[str, np.ndarray] | np.ndarray) -> np.ndarray:
        """Simulate packed patterns; returns the ``(n_nets, n_cols)``
        value matrix — same semantics as :meth:`BitSimulator.run` but
        with rows in snapshot order: index via :meth:`net_index`.
        Computed by the materialized program (:mod:`repro.sim.fused`).
        """
        return fused.run_values(self, input_words)

    def run_outputs(
        self, input_words: Mapping[str, np.ndarray] | np.ndarray
    ) -> np.ndarray:
        """Like :meth:`run` but returns only ``(n_outputs, n_cols)`` in
        ``netlist.outputs`` order, computed by the fused program
        (:mod:`repro.sim.fused`)."""
        return fused.run_outputs(self, input_words)

    def count_output_flips(
        self,
        good: np.ndarray,
        rows: Sequence[int] | np.ndarray,
        forced_words: np.ndarray,
        n_patterns: int,
    ) -> np.ndarray:
        """Per-lane output corruption when one net is forced per lane.

        Lane ``k`` re-simulates the patterns of ``good`` with row
        ``rows[k]`` overridden by ``forced_words[k]`` — the semantics of
        :meth:`BitSimulator.run` with ``forced={net: forced_words[k]}``.
        Lanes are laid side by side on the word axis (like
        :meth:`run_keyed`), sorted by row and evaluated in chunks whose
        reused-row arena holds at most ``_LANE_CHUNK_BYTES`` (but at least
        ``_MIN_CHUNK_LANES`` lanes); a chunk evaluates only the union of
        its lanes' fanout cones.

        Args:
            good: the unforced ``(n_nets, n_words)`` value matrix, as
                returned by :meth:`run` (it supplies every lane's
                unforced values and the reference outputs).
            rows: ``(L,)`` net row per lane (see :meth:`net_index`), in
                any order, repeats allowed.
            forced_words: ``(L, n_words)`` value each lane forces.
            n_patterns: valid patterns; bits past it in the last word
                are not counted.

        Returns:
            ``(L,)`` int64: output bits (over all outputs and valid
            patterns) that differ from the unforced pass, per lane.
        """
        counts = np.zeros(len(rows), dtype=np.int64)
        for lanes, diff in self._forced_lane_diffs(
            good, rows, forced_words, n_patterns
        ):
            counts[lanes] = popcount_lanes(diff.transpose(1, 0, 2))
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
        for lanes, diff in self._forced_lane_diffs(
            good, rows, forced_words, n_patterns
        ):
            masks[lanes] = np.bitwise_or.reduce(diff, axis=0)
        return masks

    def _forced_lane_diffs(
        self,
        good: np.ndarray,
        rows: Sequence[int] | np.ndarray,
        forced_words: np.ndarray,
        n_patterns: int,
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Validate the lanes, then :func:`repro.sim.fused.forced_lane_diffs`
        at today's ``_LANE_CHUNK_BYTES`` and ``_MIN_CHUNK_LANES``."""
        rows = np.asarray(rows, dtype=np.int64)
        forced_words = np.asarray(forced_words, dtype=np.uint64)
        n_lanes = rows.shape[0]
        nw = good.shape[1]
        if forced_words.shape != (n_lanes, nw):
            raise ValueError(
                f"forced_words must be ({n_lanes}, {nw}), got {forced_words.shape}"
            )
        return fused.forced_lane_diffs(
            self, good, rows, forced_words, n_patterns, _LANE_CHUNK_BYTES,
            _MIN_CHUNK_LANES,
        )

    def run_keyed(
        self,
        data_inputs: Sequence[str],
        data_words: np.ndarray,
        key_inputs: Sequence[str],
        key_bits: np.ndarray,
    ) -> np.ndarray:
        """Evaluate the same pattern block under many keys in one pass,
        on the fused program (:mod:`repro.sim.fused`).

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
        with telemetry.span("optape.compile", nets=len(netlist), cached=False):
            return OpTapeEngine(netlist)
    key = netlist_fingerprint(netlist)
    with _cache_lock:
        engine = _engine_cache.get(key)
        if engine is not None:
            _engine_cache.move_to_end(key)
            telemetry.counter_add("optape.cache.hit")
            return engine
    telemetry.counter_add("optape.cache.miss")
    with telemetry.span("optape.compile", nets=len(netlist), cached=True):
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
