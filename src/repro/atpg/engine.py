"""Full ATPG flow: random-pattern phase + deterministic PODEM top-off.

Mirrors the paper's Table II methodology: HOPE-style fault simulation with
a large pseudorandom block first (the paper does this explicitly for
b18/b19), then Atalanta-style deterministic generation with high effort
for the survivors, reporting fault coverage and the redundant+aborted
count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import telemetry
from ..netlist import Netlist
from ..runtime.budget import Budget
from ..sim import random_words
from .faults import Fault, collapse_faults
from .faultsim import FaultSimulator
from .podem import PODEM, TestOutcome


@dataclass
class ATPGReport:
    """Table II-style testability summary.

    Attributes:
        n_faults: collapsed fault-list size.
        n_detected / n_redundant / n_aborted: outcome counts.
        fault_coverage_percent: detected / total * 100.
        n_random_detected: faults dropped in the random phase.
        n_patterns: deterministic patterns kept.
    """

    n_faults: int
    n_detected: int
    n_redundant: int
    n_aborted: int
    n_random_detected: int
    n_patterns: int
    patterns: list[dict[str, int]] = field(default_factory=list)

    @property
    def fault_coverage_percent(self) -> float:
        """Detected faults as a percentage of the collapsed list."""
        if self.n_faults == 0:
            return 100.0
        return 100.0 * self.n_detected / self.n_faults

    @property
    def redundant_plus_aborted(self) -> int:
        """The Table II 'Red.+Abrt' column."""
        return self.n_redundant + self.n_aborted


def run_atpg(
    netlist: Netlist,
    n_random_patterns: int = 1024,
    max_backtracks: int = 30,
    seed: int = 0,
    collect_patterns: bool = False,
    deterministic: str = "podem+sat",
    sat_conflict_budget: int | None = 3000,
    budget: Budget | None = None,
) -> ATPGReport:
    """Run the full ATPG flow on a combinational netlist.

    Key inputs (if the netlist is locked) are ordinary inputs here: the
    OraP design keeps the key register in the scan chains, so ATPG may
    assign key inputs freely — the very property behind Table II's
    fault-coverage improvement.

    Args:
        deterministic: "podem" (classic, heuristic — may misclassify hard
            faults as redundant), "sat" (exact, miter-based), or
            "podem+sat" (PODEM fast path, SAT arbitration of every
            REDUNDANT/ABORTED verdict — exact and usually fastest).
        budget: optional shared :class:`~repro.runtime.Budget` governing
            the whole flow — the random phase charges pattern-equivalents
            per fault simulated, PODEM charges backtracks, and the SAT
            arbiter's conflicts count against it; a violation raises out
            of this function (harnesses catch via run_guarded).
    """
    if deterministic not in ("podem", "sat", "podem+sat"):
        raise ValueError(f"unknown deterministic engine {deterministic!r}")
    faults = collapse_faults(netlist)
    simulator = FaultSimulator(netlist)

    # ---- random phase: small blocks with fault dropping (HOPE-style) ----
    remaining = set(faults)
    n_random_detected = 0
    block = 128
    applied = 0
    stale_blocks = 0
    while applied < n_random_patterns and remaining:
        n_pat = min(block, n_random_patterns - applied)
        words = random_words(
            len(netlist.inputs), n_pat, seed=seed + applied + 1
        )
        in_words = {name: words[i] for i, name in enumerate(netlist.inputs)}
        detected = simulator.run(
            sorted(remaining, key=Fault.sort_key), in_words, n_pat, budget=budget
        )
        n_random_detected += len(detected)
        remaining -= detected
        applied += n_pat
        if detected:
            stale_blocks = 0
        else:
            stale_blocks += 1
            if stale_blocks >= 3:
                break  # random patterns have dried up; go deterministic

    # ---- deterministic phase with fault dropping ----
    from .sattest import sat_generate

    podem = PODEM(netlist, max_backtracks=max_backtracks)

    def sat_test(fault: Fault):
        result = sat_generate(netlist, fault, sat_conflict_budget, budget=budget)
        if result.outcome is TestOutcome.ABORTED:
            # the conflict budget ran out: the fault is booked aborted,
            # and the counter makes that give-up visible in a trace
            telemetry.counter_add("atpg.sat.aborted")
        return result

    def deterministic_test(fault: Fault):
        if deterministic == "sat":
            return sat_test(fault)
        result = podem.generate(fault, budget=budget)
        if deterministic == "podem+sat" and result.outcome in (
            TestOutcome.REDUNDANT,
            TestOutcome.ABORTED,
        ):
            return sat_test(fault)
        return result

    n_redundant = 0
    n_aborted = 0
    patterns: list[dict[str, int]] = []
    extra_detected = 0
    work = sorted(remaining, key=Fault.sort_key)
    alive = set(work)
    for fault in work:
        if fault not in alive:
            continue
        result = deterministic_test(fault)
        if result.outcome is TestOutcome.REDUNDANT:
            n_redundant += 1
            alive.discard(fault)
            continue
        if result.outcome is TestOutcome.ABORTED:
            n_aborted += 1
            alive.discard(fault)
            continue
        assert result.pattern is not None
        patterns.append(result.pattern)
        # fault dropping: simulate this pattern against all survivors
        bits = np.array(
            [[result.pattern.get(i, 0) for i in netlist.inputs]], dtype=np.uint8
        )
        from ..sim import pack_patterns

        words = pack_patterns(bits)
        in_words = {
            name: words[i] for i, name in enumerate(netlist.inputs)
        }
        dropped = simulator.run(
            sorted(alive, key=Fault.sort_key), in_words, 1, budget=budget
        )
        if fault not in dropped:
            # the deterministic engine claimed a test that simulation does
            # not confirm: book the fault as aborted rather than
            # mis-reporting coverage, and count the disagreement
            telemetry.counter_add("atpg.verdict.disagree")
            n_aborted += 1
            alive.discard(fault)
            continue
        extra_detected += len(dropped)
        alive -= dropped

    n_detected = n_random_detected + extra_detected
    return ATPGReport(
        n_faults=len(faults),
        n_detected=n_detected,
        n_redundant=n_redundant,
        n_aborted=n_aborted,
        n_random_detected=n_random_detected,
        n_patterns=len(patterns),
        patterns=patterns if collect_patterns else [],
    )
