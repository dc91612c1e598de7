"""Bit-parallel combinational simulation.

Patterns are packed 64 per machine word: net values are ``uint64`` numpy
arrays of shape ``(n_words,)`` where bit ``i % 64`` of word ``i // 64``
carries pattern ``i``.  A :class:`BitSimulator` compiles a netlist's
topological order once and then evaluates arbitrarily many pattern blocks
with pure numpy bitwise ops — the workhorse behind the paper's
Hamming-distance measurements (Table I uses "a few hundreds of thousands of
patterns") and the fault simulator's good-machine pass.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from ..netlist import GateType, Netlist

_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


def n_words(n_patterns: int) -> int:
    """Number of 64-bit words needed for ``n_patterns`` packed patterns."""
    return (n_patterns + 63) // 64


_BYTE_SHIFTS = np.uint64(8) * np.arange(8, dtype=np.uint64)


def pack_patterns(bits: np.ndarray) -> np.ndarray:
    """Pack a ``(n_patterns, n_signals)`` 0/1 array into
    ``(n_signals, n_words)`` uint64 words.

    Fully vectorized: ``np.packbits`` (LSB-first) produces the byte
    stream, and the eight bytes of each word are then combined with
    shifts — no per-pattern Python loop.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.ndim != 2:
        raise ValueError("expected a 2-D (patterns x signals) array")
    n_pat, n_sig = bits.shape
    nw = n_words(n_pat)
    cols = np.zeros((n_sig, nw * 64), dtype=np.uint8)
    cols[:, :n_pat] = (bits != 0).T
    packed = np.packbits(cols, axis=1, bitorder="little")  # (n_sig, nw * 8)
    as_bytes = packed.reshape(n_sig, nw, 8).astype(np.uint64)
    return (as_bytes << _BYTE_SHIFTS).sum(axis=2, dtype=np.uint64)


def unpack_patterns(words: np.ndarray, n_patterns: int) -> np.ndarray:
    """Inverse of :func:`pack_patterns`: ``(n_signals, n_words)`` ->
    ``(n_patterns, n_signals)`` uint8."""
    n_sig, nw = words.shape
    as_bytes = ((words[:, :, None] >> _BYTE_SHIFTS) & np.uint64(0xFF)).astype(
        np.uint8
    )
    bits = np.unpackbits(
        as_bytes.reshape(n_sig, nw * 8), axis=1, bitorder="little"
    )
    return np.ascontiguousarray(bits[:, :n_patterns].T)


def tail_mask(n_patterns: int) -> np.uint64:
    """Mask of valid bits in the final word."""
    rem = n_patterns % 64
    if rem == 0:
        return _ALL_ONES
    return np.uint64((1 << rem) - 1)


#: numpy >= 2.0 ships a hardware-popcount ufunc; older versions fall back
#: to the byte-table path below (kept — and parity-tested — forever)
_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")


def popcount_words(words: np.ndarray) -> int:
    """Total number of set bits across a uint64 array."""
    if _HAS_BITWISE_COUNT:
        return int(np.bitwise_count(words).sum(dtype=np.int64))
    return _popcount_words_table(words)


def _popcount_words_table(words: np.ndarray) -> int:
    """Byte-table popcount: the numpy < 2.0 fallback (and parity oracle)."""
    as_bytes = np.ascontiguousarray(words).reshape(-1).view(np.uint8)
    return int(_POPCOUNT_TABLE[as_bytes].sum(dtype=np.int64))


def popcount_lanes(words: np.ndarray) -> np.ndarray:
    """Per-lane popcount: sums set bits over every axis but the first.

    Used by the batched multi-key Hamming-distance reduction, where axis
    0 is the key lane.  Returns an ``(n_lanes,)`` int64 array.
    """
    if _HAS_BITWISE_COUNT:
        counts = np.bitwise_count(words)
    else:
        counts = _POPCOUNT_TABLE[
            np.ascontiguousarray(words).view(np.uint8)
        ].sum(axis=-1, dtype=np.int64)
    return counts.reshape(words.shape[0], -1).sum(axis=1, dtype=np.int64)


_POPCOUNT_TABLE = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint32)


class BitSimulator:
    """Compiled bit-parallel evaluator for one netlist.

    The constructor freezes the netlist's structure; mutating the netlist
    afterwards requires building a new simulator.
    """

    def __init__(self, netlist: Netlist) -> None:
        self.netlist = netlist
        order = netlist.topological_order()
        self._index = {n: i for i, n in enumerate(order)}
        self._order = order
        self._ops: list[tuple[GateType, int, tuple[int, ...]]] = []
        for n in order:
            g = netlist.gate(n)
            if g.gtype is GateType.INPUT:
                continue
            self._ops.append(
                (g.gtype, self._index[n], tuple(self._index[f] for f in g.fanin))
            )
        self._input_idx = [self._index[i] for i in netlist.inputs]
        self._output_idx = [self._index[o] for o in netlist.outputs]

    @property
    def n_nets(self) -> int:
        """Number of nets in the compiled order."""
        return len(self._order)

    def net_index(self, name: str) -> int:
        """Row index of a net in the value matrix."""
        return self._index[name]

    def run(
        self,
        input_words: Mapping[str, np.ndarray] | np.ndarray,
        forced: Mapping[str, np.ndarray] | None = None,
    ) -> np.ndarray:
        """Simulate packed patterns; returns the full ``(n_nets, n_words)``
        value matrix (index via :meth:`net_index`).

        Args:
            input_words: either a mapping input-name -> word array, or a
                ``(n_inputs, n_words)`` array in ``netlist.inputs`` order.
            forced: optional nets whose computed value is overridden
                (stuck-at injection for the fault simulator).
        """
        if isinstance(input_words, np.ndarray):
            if input_words.shape[0] != len(self._input_idx):
                raise ValueError(
                    f"expected {len(self._input_idx)} input rows, "
                    f"got {input_words.shape[0]}"
                )
            nw = input_words.shape[1]
            values = np.zeros((self.n_nets, nw), dtype=np.uint64)
            for row, idx in enumerate(self._input_idx):
                values[idx] = input_words[row]
        else:
            arrays = list(input_words.values())
            if not arrays:
                raise ValueError("no input patterns supplied")
            nw = arrays[0].shape[0]
            values = np.zeros((self.n_nets, nw), dtype=np.uint64)
            for name in self.netlist.inputs:
                if name not in input_words:
                    raise ValueError(f"missing patterns for input {name!r}")
                values[self._index[name]] = input_words[name]
        forced_idx = (
            {self._index[n]: np.asarray(v, dtype=np.uint64) for n, v in forced.items()}
            if forced
            else {}
        )
        # apply forces on source nets (inputs/constants) before gate eval
        for idx, v in forced_idx.items():
            values[idx] = v
        for gtype, out, fins in self._ops:
            if out in forced_idx:
                values[out] = forced_idx[out]
                continue
            values[out] = _eval_words(gtype, values, fins, nw)
        return values

    def run_outputs(
        self,
        input_words: Mapping[str, np.ndarray] | np.ndarray,
        forced: Mapping[str, np.ndarray] | None = None,
    ) -> np.ndarray:
        """Like :meth:`run` but returns only ``(n_outputs, n_words)``."""
        values = self.run(input_words, forced)
        return values[self._output_idx]

    def outputs_from_matrix(self, values: np.ndarray) -> np.ndarray:
        """Slice the output rows out of a full value matrix."""
        return values[self._output_idx]


def _eval_words(
    gtype: GateType, values: np.ndarray, fins: Sequence[int], nw: int
) -> np.ndarray:
    if gtype is GateType.CONST0:
        return np.zeros(nw, dtype=np.uint64)
    if gtype is GateType.CONST1:
        return np.full(nw, _ALL_ONES, dtype=np.uint64)
    if gtype is GateType.BUF:
        return values[fins[0]].copy()
    if gtype is GateType.NOT:
        return ~values[fins[0]]
    if gtype is GateType.MUX:
        s, d0, d1 = (values[i] for i in fins)
        return (s & d1) | (~s & d0)
    acc = values[fins[0]].copy()
    if gtype in (GateType.AND, GateType.NAND):
        for i in fins[1:]:
            acc &= values[i]
        return ~acc if gtype is GateType.NAND else acc
    if gtype in (GateType.OR, GateType.NOR):
        for i in fins[1:]:
            acc |= values[i]
        return ~acc if gtype is GateType.NOR else acc
    if gtype in (GateType.XOR, GateType.XNOR):
        for i in fins[1:]:
            acc ^= values[i]
        return ~acc if gtype is GateType.XNOR else acc
    raise AssertionError(gtype)  # pragma: no cover


def broadcast_constant(bit: int, nw: int) -> np.ndarray:
    """A word array holding the same scalar bit in every pattern slot."""
    return np.full(nw, _ALL_ONES if bit else 0, dtype=np.uint64)


def simulate_many(
    netlist: Netlist, patterns: Iterable[Mapping[str, int]]
) -> list[dict[str, int]]:
    """Convenience: simulate a list of scalar assignments bit-parallel and
    return scalar output dicts (order preserved)."""
    pats = list(patterns)
    if not pats:
        return []
    bits = np.array(
        [[int(bool(p[i])) for i in netlist.inputs] for p in pats], dtype=np.uint8
    )
    words = pack_patterns(bits)
    sim = BitSimulator(netlist)
    in_words = {name: words[k] for k, name in enumerate(netlist.inputs)}
    out = sim.run_outputs(in_words)
    rows = unpack_patterns(out, len(pats))
    return [
        {o: int(rows[i][j]) for j, o in enumerate(netlist.outputs)}
        for i in range(len(pats))
    ]
