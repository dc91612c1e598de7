"""Combinational logic-locking schemes: RLL/EPIC, fault-analysis (FLL),
weighted logic locking (WLL, the paper's companion scheme), and the
SAT-resistant baselines SARLock / Anti-SAT."""

from .base import (
    LockedCircuit,
    LockingError,
    insert_key_gate,
    make_key_inputs,
    random_key,
)
from .rll import lock_random
from .fll import lock_fault_analysis, rank_nets_by_fault_impact
from .wll import WLLConfig, lock_weighted
from .sarlock import lock_sarlock
from .antisat import lock_antisat

__all__ = [
    "LockedCircuit",
    "LockingError",
    "insert_key_gate",
    "make_key_inputs",
    "random_key",
    "lock_random",
    "lock_fault_analysis",
    "rank_nets_by_fault_impact",
    "WLLConfig",
    "lock_weighted",
    "lock_sarlock",
    "lock_antisat",
]
