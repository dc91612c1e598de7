"""Experiment harnesses: one module per paper artifact (E1..E5) plus the
ablation sweeps called out in DESIGN.md."""

from .chaos import DEFAULT_CHAOS_SPEC, run_chaos_bench, run_chaos_cli
from .common import DEFAULT_SCALE, format_table
from .runner import (
    DEFAULT_CHECKPOINT_ROOT,
    CampaignInterrupted,
    ExperimentRunner,
    RowTask,
    RunPolicy,
)
from .table1 import Table1Row, lock_for_table1, print_table1, run_table1
from .table2 import Table2Row, print_table2, run_table2
from .attack_matrix import (
    MatrixCell,
    default_design,
    print_attack_matrix,
    run_attack_matrix,
)
from .trojan_table import (
    TrojanRow,
    paper_reference_payloads,
    print_trojan_table,
    run_trojan_table,
)
from .protocol import ProtocolCheck, print_protocol, run_protocol_checks
from .arms_race import ArmsRaceRow, print_arms_race, run_arms_race
from .scaling import ScalingRow, print_scaling, run_scaling_study
from .hd_saturation import (
    HDPoint,
    print_hd_sweep,
    run_hd_sweep,
    saturation_point,
)

__all__ = [
    "DEFAULT_SCALE",
    "DEFAULT_CHECKPOINT_ROOT",
    "DEFAULT_CHAOS_SPEC",
    "CampaignInterrupted",
    "ExperimentRunner",
    "RowTask",
    "RunPolicy",
    "run_chaos_bench",
    "run_chaos_cli",
    "format_table",
    "Table1Row",
    "lock_for_table1",
    "print_table1",
    "run_table1",
    "Table2Row",
    "print_table2",
    "run_table2",
    "MatrixCell",
    "default_design",
    "print_attack_matrix",
    "run_attack_matrix",
    "TrojanRow",
    "paper_reference_payloads",
    "print_trojan_table",
    "run_trojan_table",
    "HDPoint",
    "print_hd_sweep",
    "run_hd_sweep",
    "saturation_point",
    "ScalingRow",
    "print_scaling",
    "run_scaling_study",
    "ArmsRaceRow",
    "print_arms_race",
    "run_arms_race",
    "ProtocolCheck",
    "print_protocol",
    "run_protocol_checks",
]
