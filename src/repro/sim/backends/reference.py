"""The numpy reference lane: a thin adapter over the grouped evaluator.

The actual implementation lives in :mod:`repro.sim.optape` (it predates
the backend registry and stays there as the semantic baseline); this
adapter only routes registry calls back to it with ``backend="numpy"``
so the engine's dispatch short-circuits instead of recursing.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np


class NumpyReference:
    """Grouped gather/reduce evaluator — always available, never wrong."""

    name = "numpy"

    def available(self) -> bool:
        return True

    def run_outputs(
        self,
        engine: Any,
        input_words: Mapping[str, np.ndarray] | np.ndarray,
    ) -> np.ndarray:
        return engine.run_outputs(input_words, backend="numpy")

    def run_keyed(
        self,
        engine: Any,
        data_inputs: Sequence[str],
        data_words: np.ndarray,
        key_inputs: Sequence[str],
        key_bits: np.ndarray,
    ) -> np.ndarray:
        return engine.run_keyed(
            data_inputs, data_words, key_inputs, key_bits, backend="numpy"
        )
