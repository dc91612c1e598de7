"""Bit-parallel stuck-at fault simulator (HOPE-class role).

Fault-parallel × pattern-parallel: the good machine is simulated once per
pattern block on the compiled engine's materialized program
(:meth:`~repro.sim.optape.OpTapeEngine.run`), then every fault of the
list becomes one *forced lane* of
:meth:`~repro.sim.optape.OpTapeEngine.count_output_flips` — lane ``k``
replays the block with fault ``k``'s site overridden, and each chunk of
lanes evaluates only the fanout cones of its sites.  A stem fault
forces its net to the stuck constant; a pin fault forces the gate's
output to the gate re-evaluated from good values with that one input
stuck, batched per gate type and arity on the fused planner's own
primitives (:func:`~repro.sim.fused.eval_gate`).  A fault is detected
when its lane flips at least one valid output bit.  64 patterns per
word and many faults per pass — the same engineering trade HOPE [28]
makes with parallel patterns, widened across faults.  Span
``atpg.faultsim`` wraps every :meth:`FaultSimulator.run`.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from .. import telemetry
from ..netlist import GateType, Netlist
from ..runtime import faultinject
from ..runtime.budget import Budget
from ..sim.fused import eval_gate
from ..sim.optape import compile_engine
from .faults import Fault

_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


class FaultSimulator:
    """Fault simulator bound to one netlist."""

    def __init__(self, netlist: Netlist) -> None:
        self.netlist = netlist
        # shared via the compile cache with every other user of the circuit
        self.sim = compile_engine(netlist)

    def good_values(self, input_words: Mapping[str, np.ndarray]) -> np.ndarray:
        """Fault-free value matrix for one packed pattern block."""
        return self.sim.run(input_words)

    def _lanes(
        self, faults: Sequence[Fault], good: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """(engine row, forced words) per fault: the lane inputs of
        :meth:`~repro.sim.optape.OpTapeEngine.count_output_flips`."""
        net_index = self.sim.net_index
        gate = self.netlist.gate
        rows = np.array([net_index(f.gate) for f in faults], dtype=np.int64)
        forced = np.zeros((len(faults), good.shape[1]), dtype=np.uint64)
        forced[[bool(f.stuck_at) for f in faults]] = _ALL_ONES
        # pin faults, batched per (gate type, arity): gather the fan-in
        # good values, stick the faulty pin, re-evaluate the gate with
        # the planner's own primitives
        pin_lanes: dict[tuple[GateType, int], list[int]] = {}
        for k, f in enumerate(faults):
            if f.pin is not None:
                g = gate(f.gate)
                pin_lanes.setdefault((g.gtype, len(g.fanin)), []).append(k)
        for (gtype, _arity), ks in pin_lanes.items():
            fan = np.array(
                [[net_index(n) for n in gate(faults[k].gate).fanin] for k in ks],
                dtype=np.int64,
            ).T
            slots = good[fan]  # (arity, len(ks), n_words)
            pins = [faults[k].pin for k in ks]
            slots[pins, np.arange(len(ks))] = forced[ks]
            forced[ks] = eval_gate(gtype, list(slots))
        return rows, forced

    def detects(
        self, fault: Fault, good: np.ndarray, n_patterns: int
    ) -> np.ndarray:
        """Word-mask of patterns detecting ``fault`` (given good values),
        computed on one forced lane."""
        rows, forced = self._lanes([fault], good)
        return self.sim.output_flip_masks(good, rows, forced, n_patterns)[0]

    def run(
        self,
        faults: Iterable[Fault],
        input_words: Mapping[str, np.ndarray],
        n_patterns: int,
        budget: Budget | None = None,
    ) -> set[Fault]:
        """Return the subset of ``faults`` detected by the pattern block.

        ``budget`` (if given) is charged ``n_patterns``
        pattern-equivalents per fault and polled for its deadline at the
        same granularity, all before the block is simulated — so a
        budget trips at a fault count that does not depend on how the
        faults are chunked into lanes.

        Span ``atpg.faultsim`` (attrs ``faults``, ``patterns``,
        ``detected``) wraps every call.
        """
        faults = list(faults)
        with telemetry.span(
            "atpg.faultsim", faults=len(faults), patterns=n_patterns
        ) as span:
            good = self.good_values(input_words)
            for _fault in faults:
                if faultinject.enabled:
                    faultinject.fire("faultsim.fault")
                if budget is not None:
                    budget.charge_patterns(n_patterns)
            rows, forced = self._lanes(faults, good)
            flips = self.sim.count_output_flips(good, rows, forced, n_patterns)
            detected = {f for f, c in zip(faults, flips.tolist()) if c}
            span.set(detected=len(detected))
        return detected

    def detects_pattern(
        self, fault: Fault, assignment: Mapping[str, int]
    ) -> bool:
        """Scalar single-pattern check: does ``assignment`` detect
        ``fault``?  A one-pattern :meth:`detects`; the ATPG test suite
        uses it to confirm generated patterns (the ATPG engine itself
        confirms them through :meth:`run`)."""
        words = {
            name: np.array(
                [_ALL_ONES if assignment.get(name, 0) else 0], dtype=np.uint64
            )
            for name in self.netlist.inputs
        }
        good = self.good_values(words)
        return bool(self.detects(fault, good, 64).any())
