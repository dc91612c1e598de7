"""Area/delay overhead measurement (paper Table I columns 6–8).

Both the original and the protected combinational netlist are normalized
with :func:`~repro.synth.passes.optimize` and compared on AND-node count
(area, "gate count") and AIG depth (delay, "number of levels").  The OraP
fixed costs — pulse generators, reseeding XORs, characteristic-polynomial
XORs — are added to the protected area, and the LFSR flip-flops are
excluded, exactly as the paper specifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .. import telemetry
from ..netlist import Netlist
from .convert import netlist_to_aig
from .passes import optimize

if TYPE_CHECKING:
    from ..orap.lfsr import LFSRConfig


@dataclass(frozen=True)
class OverheadReport:
    """Resynthesized area/delay comparison.

    Attributes:
        area_original / area_protected: optimized AND-node counts (the
            protected figure includes the OraP register's gate overhead
            when an LFSR config is supplied).
        depth_original / depth_protected: optimized AIG levels.
        area_overhead_percent / delay_overhead_percent: Table I columns.
    """

    area_original: int
    area_protected: int
    depth_original: int
    depth_protected: int
    orap_fixed_gates: int

    @property
    def area_overhead_percent(self) -> float:
        """The Table I 'Ar. Ovhd (%)' column."""
        if self.area_original == 0:
            return 0.0
        return 100.0 * (self.area_protected - self.area_original) / self.area_original

    @property
    def delay_overhead_percent(self) -> float:
        """The Table I 'Del. Ovhd (%)' column."""
        if self.depth_original == 0:
            return 0.0
        return 100.0 * (self.depth_protected - self.depth_original) / self.depth_original


def resynthesized_area_depth(netlist: Netlist, rounds: int = 1) -> tuple[int, int]:
    """Optimized (area, depth) of one netlist."""
    aig = optimize(netlist_to_aig(netlist), rounds=rounds)
    return aig.area(), aig.depth()


def measure_overhead(
    original: Netlist,
    protected: Netlist,
    lfsr_config: LFSRConfig | None = None,
    rounds: int = 1,
) -> OverheadReport:
    """Measure Table I-style overheads.

    ``protected`` is the locked combinational netlist with key inputs left
    free (they are register outputs at chip level).  When ``lfsr_config``
    is given, the key register's pulse generators and XOR gates are added
    to the protected area; the register's flip-flops are not counted
    ("the use of key registers is common to all logic locking
    techniques").
    """
    with telemetry.span("synth.overhead") as span:
        a_orig, d_orig = resynthesized_area_depth(original, rounds)
        a_prot, d_prot = resynthesized_area_depth(protected, rounds)
        fixed = 0
        if lfsr_config is not None:
            # imported here: repro.sat builds on repro.synth, and
            # repro.orap loads the locking and simulation stacks
            from ..orap.keyregister import KeyRegister

            fixed = KeyRegister(lfsr_config).gate_overhead()["total"]
        span.set(area_original=a_orig, area_protected=a_prot + fixed,
                 depth_original=d_orig, depth_protected=d_prot)
    return OverheadReport(
        area_original=a_orig,
        area_protected=a_prot + fixed,
        depth_original=d_orig,
        depth_protected=d_prot,
        orap_fixed_gates=fixed,
    )
