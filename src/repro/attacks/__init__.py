"""Oracle-based (and companion oracle-less) attacks on logic locking:
SAT [6], AppSAT [11], Double DIP [10], hill climbing [4], key
sensitization [5], SPS [9], removal [9], bypass [12], FALL [18]."""

from .api import (
    AttackSpec,
    AttackTarget,
    get_attack,
    list_attacks,
    register,
    run_attack,
)
from .config import AttackConfig
from .oracle import (
    CountingOracle,
    IdealOracle,
    Oracle,
    OracleBudgetExceeded,
    ScanOracle,
)
from .result import (
    AttackResult,
    exhausted_result,
    key_is_correct,
    netlist_is_correct,
)
from .encoding import AIGEncoder
from .satattack import SATAttackConfig, extract_consistent_key, sat_attack
from .appsat import AppSATConfig, appsat_attack
from .doubledip import DoubleDIPConfig, doubledip_attack
from .hillclimb import HillClimbConfig, hill_climb_attack
from .sensitization import SensitizationConfig, sensitization_attack
from .sps import SPSFinding, find_skewed_nets, sps_attack
from .removal import RemovalCandidate, find_removal_candidates, removal_attack
from .bypass import BypassConfig, bypass_attack, enumerate_disagreements
from .cycsat import CycSATConfig, cycsat_attack, no_cycle_clauses
from .sail import (
    LogisticModel,
    extract_key_features,
    key_accuracy,
    resynthesize,
    sail_attack,
    train_sail_model,
)
from .sequential_sat import (
    FunctionalOracle,
    SequentialSATConfig,
    sequential_sat_attack,
)
from .fall import (
    ComparatorMatch,
    fall_attack,
    find_restore_units,
    recover_stripped_cube,
)

__all__ = [
    "AttackSpec",
    "AttackTarget",
    "get_attack",
    "list_attacks",
    "register",
    "run_attack",
    "AttackConfig",
    "CountingOracle",
    "IdealOracle",
    "Oracle",
    "OracleBudgetExceeded",
    "ScanOracle",
    "AttackResult",
    "exhausted_result",
    "key_is_correct",
    "netlist_is_correct",
    "AIGEncoder",
    "SATAttackConfig",
    "extract_consistent_key",
    "sat_attack",
    "AppSATConfig",
    "appsat_attack",
    "DoubleDIPConfig",
    "doubledip_attack",
    "HillClimbConfig",
    "hill_climb_attack",
    "SensitizationConfig",
    "sensitization_attack",
    "SPSFinding",
    "find_skewed_nets",
    "sps_attack",
    "RemovalCandidate",
    "find_removal_candidates",
    "removal_attack",
    "BypassConfig",
    "bypass_attack",
    "enumerate_disagreements",
    "LogisticModel",
    "extract_key_features",
    "key_accuracy",
    "resynthesize",
    "sail_attack",
    "train_sail_model",
    "CycSATConfig",
    "cycsat_attack",
    "no_cycle_clauses",
    "FunctionalOracle",
    "SequentialSATConfig",
    "sequential_sat_attack",
    "ComparatorMatch",
    "fall_attack",
    "find_restore_units",
    "recover_stripped_cube",
]
