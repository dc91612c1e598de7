"""Pluggable execution backends for the op-tape engine.

:class:`~repro.sim.optape.OpTapeEngine` compiles a netlist into a flat
levelized tape; *how* that tape is executed is a backend decision.  This
package keeps a registry of execution lanes, all bit-identical by
contract (the differential suite in ``tests/test_backends.py`` checks
every available lane against :class:`~repro.sim.bitsim.BitSimulator`):

``numpy``
    The grouped reference evaluator that lives in ``optape.py`` itself —
    one fancy-index gather + ufunc reduction per tape group.  Always
    available; the semantic baseline every other lane must match.
``fused``
    Ahead-of-time planned CPU lane (:mod:`.fused`): the tape is lowered
    once per engine to straight-line per-gate ufunc calls on
    preallocated arena row *views* (no gathers), with buffer/inverter
    aliasing, polarity absorption, De Morgan dual-form selection and
    live-range row reuse.  Always available; the ``auto`` default.
``numba``
    JIT lane (:mod:`.numba_lane`): the same flat tape executed by one
    ``@njit`` kernel.  Available only when ``numba`` is importable
    (``pip install 'repro[numba]'``).
``cupy``
    GPU offload lane (:mod:`.cupy_lane`): the grouped tape evaluated on
    device via CuPy.  Available only when ``cupy`` is importable *and* a
    CUDA device responds.

``"auto"`` resolves to the fused lane: it is the fastest lane that is
always present, and opt-in accelerators stay opt-in so a missing GPU can
never silently change where a campaign runs.  Backend choice is salted
into result-cache keys (see :mod:`repro.sim.metrics`), so switching
lanes can never alias cached results.
"""

from __future__ import annotations

from typing import Any, Mapping, Protocol, Sequence, runtime_checkable

import numpy as np


class BackendUnavailable(RuntimeError):
    """A registered backend cannot run here (missing dependency/device)."""


@runtime_checkable
class SimBackend(Protocol):
    """Execution lane contract: bit-identical to the numpy reference."""

    name: str

    def available(self) -> bool:
        """True when this lane can execute on the current machine."""
        ...

    def run_outputs(
        self,
        engine: Any,
        input_words: Mapping[str, np.ndarray] | np.ndarray,
    ) -> np.ndarray:
        """Packed ``(n_outputs, n_words)`` outputs in netlist order."""
        ...

    def run_keyed(
        self,
        engine: Any,
        data_inputs: Sequence[str],
        data_words: np.ndarray,
        key_inputs: Sequence[str],
        key_bits: np.ndarray,
    ) -> np.ndarray:
        """Packed ``(n_keys, n_outputs, n_words)`` lane-major outputs."""
        ...


#: what ``"auto"`` resolves to — the fastest always-available lane
AUTO_BACKEND = "fused"

_REGISTRY: "dict[str, SimBackend]" = {}


def register_backend(backend: SimBackend) -> None:
    """Register (or replace) an execution lane under ``backend.name``."""
    _REGISTRY[backend.name] = backend


def list_backends() -> list[str]:
    """Every registered lane name, whether or not it can run here."""
    return list(_REGISTRY)


def available_backends() -> list[str]:
    """Lane names that can actually execute on this machine."""
    return [name for name, b in _REGISTRY.items() if b.available()]


def get_backend(name: str) -> SimBackend:
    """Fetch a lane by exact name; raises ``ValueError`` if unknown."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown sim backend {name!r}; known: "
            f"{sorted(_REGISTRY)} (or 'auto')"
        ) from None


def resolve_backend(name: str = "auto") -> SimBackend:
    """Resolve a lane name (``"auto"`` included) to a usable backend.

    ``"auto"`` honours the ``REPRO_SIM_BACKEND`` environment variable
    before falling back to :data:`AUTO_BACKEND` — that is how the
    unified ``--sim-backend`` CLI flag reaches harnesses that simulate
    without threading a :class:`~repro.experiments.runner.RunPolicy`
    (an explicit lane name always wins over the environment).

    Raises :class:`BackendUnavailable` when the lane exists but its
    dependency or device is absent — callers that want skip-not-fail
    semantics (the bench harness, CI backend matrix) catch exactly that.
    """
    if name == "auto":
        import os

        name = os.environ.get("REPRO_SIM_BACKEND", "").strip() or AUTO_BACKEND
        if name == "auto":  # env may itself say "auto"
            name = AUTO_BACKEND
    backend = get_backend(name)
    if not backend.available():
        raise BackendUnavailable(
            f"sim backend {name!r} is registered but not available on "
            f"this machine (available: {available_backends()})"
        )
    return backend


from .reference import NumpyReference  # noqa: E402
from .fused import FusedBackend  # noqa: E402
from .numba_lane import NumbaBackend  # noqa: E402
from .cupy_lane import CupyBackend  # noqa: E402

register_backend(NumpyReference())
register_backend(FusedBackend())
register_backend(NumbaBackend())
register_backend(CupyBackend())

__all__ = [
    "AUTO_BACKEND",
    "BackendUnavailable",
    "SimBackend",
    "available_backends",
    "get_backend",
    "list_backends",
    "register_backend",
    "resolve_backend",
]
