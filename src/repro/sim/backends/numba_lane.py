"""Optional numba JIT lane: the flat int64 tape in one ``@njit`` kernel.

The engine's tape is flattened gate-by-gate into four int64 arrays
(opcode, fan-in offsets, fan-in rows, output row) and executed by a
single jitted kernel — no Python dispatch between gates at all.  The
gate-major/column-minor loop order reproduces the reference evaluator's
semantics exactly, including cyclic-region read-before-write (each
column's reads complete before that column's write).

``numba`` is deliberately **not** a dependency: :meth:`available`
detects it, and every entry point raises
:class:`~repro.sim.backends.BackendUnavailable` when it is missing so
callers (bench matrix, CLI) can skip instead of fail.  Install with
``pip install 'repro[numba]'``.
"""

from __future__ import annotations

import importlib.util
from typing import Any, Mapping, Sequence

import numpy as np

from ... import telemetry
from ...netlist import GateType

_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)

_OPCODE = {
    GateType.BUF: 0,
    GateType.NOT: 1,
    GateType.AND: 2,
    GateType.NAND: 3,
    GateType.OR: 4,
    GateType.NOR: 5,
    GateType.XOR: 6,
    GateType.XNOR: 7,
    GateType.MUX: 8,
    GateType.CONST0: 9,
    GateType.CONST1: 10,
}

_kernel = None  # compiled lazily on first use


def _have_numba() -> bool:
    try:
        return importlib.util.find_spec("numba") is not None
    except (ImportError, ValueError):  # pragma: no cover - exotic loaders
        return False


def _get_kernel():
    """Compile (once) the flat-tape evaluator; numba must be present."""
    global _kernel
    if _kernel is not None:
        return _kernel
    import numba  # deferred: available() gates every path to here

    @numba.njit(cache=False)
    def kernel(V, ops, offs, fis, out_rows):  # pragma: no cover - jitted
        n_cols = V.shape[1]
        for g in range(ops.shape[0]):
            op = ops[g]
            a = offs[g]
            r = out_rows[g]
            if op == 8:  # MUX(s, d0, d1)
                s = fis[a]
                d0 = fis[a + 1]
                d1 = fis[a + 2]
                for c in range(n_cols):
                    sv = V[s, c]
                    V[r, c] = (sv & V[d1, c]) | ((~sv) & V[d0, c])
            elif op == 0:  # BUF
                s = fis[a]
                for c in range(n_cols):
                    V[r, c] = V[s, c]
            elif op == 1:  # NOT
                s = fis[a]
                for c in range(n_cols):
                    V[r, c] = ~V[s, c]
            elif op == 9:  # CONST0
                for c in range(n_cols):
                    V[r, c] = 0
            elif op == 10:  # CONST1
                for c in range(n_cols):
                    V[r, c] = ~np.uint64(0)
            else:  # AND/NAND/OR/NOR/XOR/XNOR reductions
                b = offs[g + 1]
                inverting = op == 3 or op == 5 or op == 7
                for c in range(n_cols):
                    acc = V[fis[a], c]
                    for k in range(a + 1, b):
                        v = V[fis[k], c]
                        if op == 2 or op == 3:
                            acc = acc & v
                        elif op == 4 or op == 5:
                            acc = acc | v
                        else:
                            acc = acc ^ v
                    if inverting:
                        acc = ~acc
                    V[r, c] = acc

    _kernel = kernel
    return kernel


def _flat_tape(engine: Any) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Flatten the grouped tape to per-gate arrays (cached on engine)."""
    cached = engine.__dict__.get("_flat_tape")
    if cached is not None:
        return cached
    ops: list[int] = []
    offs: list[int] = [0]
    fis: list[int] = []
    out_rows: list[int] = []
    for group in engine._tape:
        fan = group.fanin_idx
        code = _OPCODE[group.gtype]
        for j in range(group.size):
            ops.append(code)
            for s in range(fan.shape[0]):
                fis.append(int(fan[s, j]))
            offs.append(len(fis))
            out_rows.append(group.start + j)
    flat = (
        np.array(ops, dtype=np.int64),
        np.array(offs, dtype=np.int64),
        np.array(fis, dtype=np.int64),
        np.array(out_rows, dtype=np.int64),
    )
    engine.__dict__["_flat_tape"] = flat
    return flat


class NumbaBackend:
    """JIT lane over the flat tape; skipped cleanly when numba is absent."""

    name = "numba"

    def available(self) -> bool:
        return _have_numba()

    def _require(self) -> None:
        if not self.available():
            from . import BackendUnavailable

            raise BackendUnavailable(
                "sim backend 'numba' needs the numba package "
                "(pip install 'repro[numba]')"
            )

    def _execute(self, engine: Any, values: np.ndarray) -> np.ndarray:
        ops, offs, fis, out_rows = _flat_tape(engine)
        _get_kernel()(values, ops, offs, fis, out_rows)
        return values

    def run_outputs(
        self,
        engine: Any,
        input_words: Mapping[str, np.ndarray] | np.ndarray,
    ) -> np.ndarray:
        self._require()
        nw, fills = engine.input_fills(input_words)
        values = engine._alloc(nw)
        for row, words in fills:
            values[row] = words
        with telemetry.span(
            "optape.run", words=nw, groups=engine.n_groups, backend=self.name
        ):
            telemetry.counter_add("optape.words", nw)
            self._execute(engine, values)
        return values[engine._output_idx]

    def run_keyed(
        self,
        engine: Any,
        data_inputs: Sequence[str],
        data_words: np.ndarray,
        key_inputs: Sequence[str],
        key_bits: np.ndarray,
    ) -> np.ndarray:
        self._require()
        key_bits = np.asarray(key_bits, dtype=np.uint8)
        index = engine._index
        n_keys = key_bits.shape[0]
        nw = data_words.shape[1]
        values = engine._alloc(n_keys * nw)
        for row, name in enumerate(data_inputs):
            values[index[name]] = np.tile(data_words[row], n_keys)
        lane_words = np.where(key_bits.astype(bool), _ALL_ONES, np.uint64(0))
        for col, name in enumerate(key_inputs):
            values[index[name]] = np.repeat(lane_words[:, col], nw)
        with telemetry.span(
            "optape.run",
            words=n_keys * nw,
            lanes=n_keys,
            groups=engine.n_groups,
            backend=self.name,
        ):
            telemetry.counter_add("optape.words", n_keys * nw)
            self._execute(engine, values)
        out = values[engine._output_idx]
        return out.reshape(len(engine._output_idx), n_keys, nw).transpose(1, 0, 2)
