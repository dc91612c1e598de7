"""Optional CuPy GPU lane: the grouped tape offloaded to a CUDA device.

Mirrors the grouped numpy evaluator op-for-op on device arrays (CuPy's
ufunc surface matches numpy's for the bitwise family), uploading the
packed inputs once and downloading only the output rows.  Worth it when
``n_nets * n_cols`` is large enough to amortize the two transfers;
:meth:`available` requires both an importable ``cupy`` and a responding
CUDA device, so machines without a GPU skip this lane instead of
crashing mid-campaign.
"""

from __future__ import annotations

import importlib.util
from typing import Any, Mapping, Sequence

import numpy as np

from ... import telemetry
from ...netlist import GateType

_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)

_availability: bool | None = None


def _have_cupy() -> bool:
    """Import *and* device probe, cached: a cupy install without a
    visible CUDA device must not claim availability."""
    global _availability
    if _availability is not None:
        return _availability
    ok = False
    try:
        if importlib.util.find_spec("cupy") is not None:
            import cupy

            ok = int(cupy.cuda.runtime.getDeviceCount()) > 0
    except Exception:  # any runtime/driver failure means "not here"
        ok = False
    _availability = ok
    return ok


def _eval_tape_device(cp: Any, engine: Any, values: Any) -> None:
    """Evaluate the grouped tape on device, group by group."""
    fan_cache = engine.__dict__.get("_cupy_fanin")
    if fan_cache is None:
        fan_cache = [cp.asarray(g.fanin_idx) for g in engine._tape]
        engine.__dict__["_cupy_fanin"] = fan_cache
    for group, fan in zip(engine._tape, fan_cache):
        gtype = group.gtype
        out = values[group.start : group.stop]
        if gtype is GateType.CONST0:
            out[:] = 0
            continue
        if gtype is GateType.CONST1:
            out[:] = _ALL_ONES
            continue
        if gtype is GateType.BUF:
            out[:] = values[fan[0]]
            continue
        if gtype is GateType.NOT:
            out[:] = ~values[fan[0]]
            continue
        if gtype is GateType.MUX:
            s = values[fan[0]]
            out[:] = (s & values[fan[2]]) | (~s & values[fan[1]])
            continue
        # gather-first keeps cyclic self-references reading pre-write
        # values, matching the reference evaluator's overlap handling
        acc = values[fan[0]].copy()
        op = cp.bitwise_and if gtype in (GateType.AND, GateType.NAND) else (
            cp.bitwise_or if gtype in (GateType.OR, GateType.NOR) else cp.bitwise_xor
        )
        for s in range(1, fan.shape[0]):
            op(acc, values[fan[s]], out=acc)
        if gtype.is_inverting:
            cp.invert(acc, out=acc)
        out[:] = acc


def _alloc_device(cp: Any, engine: Any, n_cols: int) -> Any:
    values = cp.empty((engine.n_nets, n_cols), dtype=cp.uint64)
    if engine._const0_idx:
        values[engine._const0_idx] = 0
    if engine._const1_idx:
        values[engine._const1_idx] = _ALL_ONES
    if engine._cyclic_idx:
        values[engine._cyclic_idx] = 0
    return values


class CupyBackend:
    """GPU offload lane; skipped cleanly without cupy or a device."""

    name = "cupy"

    def available(self) -> bool:
        return _have_cupy()

    def _require(self) -> Any:
        if not self.available():
            from . import BackendUnavailable

            raise BackendUnavailable(
                "sim backend 'cupy' needs the cupy package and a CUDA device"
            )
        import cupy

        return cupy

    def run_outputs(
        self,
        engine: Any,
        input_words: Mapping[str, np.ndarray] | np.ndarray,
    ) -> np.ndarray:
        cp = self._require()
        nw, fills = engine.input_fills(input_words)
        values = _alloc_device(cp, engine, nw)
        for row, words in fills:
            values[row] = cp.asarray(words)
        with telemetry.span(
            "optape.run", words=nw, groups=engine.n_groups, backend=self.name
        ):
            telemetry.counter_add("optape.words", nw)
            _eval_tape_device(cp, engine, values)
        return cp.asnumpy(values[cp.asarray(engine._output_idx)])

    def run_keyed(
        self,
        engine: Any,
        data_inputs: Sequence[str],
        data_words: np.ndarray,
        key_inputs: Sequence[str],
        key_bits: np.ndarray,
    ) -> np.ndarray:
        cp = self._require()
        key_bits = np.asarray(key_bits, dtype=np.uint8)
        index = engine._index
        n_keys = key_bits.shape[0]
        nw = data_words.shape[1]
        values = _alloc_device(cp, engine, n_keys * nw)
        for row, name in enumerate(data_inputs):
            values[index[name]] = cp.tile(cp.asarray(data_words[row]), n_keys)
        lane_words = np.where(key_bits.astype(bool), _ALL_ONES, np.uint64(0))
        for col, name in enumerate(key_inputs):
            values[index[name]] = cp.repeat(cp.asarray(lane_words[:, col]), nw)
        with telemetry.span(
            "optape.run",
            words=n_keys * nw,
            lanes=n_keys,
            groups=engine.n_groups,
            backend=self.name,
        ):
            telemetry.counter_add("optape.words", n_keys * nw)
            _eval_tape_device(cp, engine, values)
        out = cp.asnumpy(values[cp.asarray(engine._output_idx)])
        return out.reshape(len(engine._output_idx), n_keys, nw).transpose(1, 0, 2)
