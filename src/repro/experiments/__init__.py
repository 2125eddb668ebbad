"""Experiment harnesses regenerating the paper's evaluation (see the
``experiments/`` row of ``docs/architecture.md``)."""

from .ablation import (
    ConcurrentChangeOutcome,
    CreationCostPoint,
    run_concurrent_change_ablation,
    run_creation_cost_ablation,
)
from .common import (
    PROTOCOL_CONSENSUS_CT,
    PROTOCOL_CT,
    PROTOCOL_SEQ,
    PROTOCOL_TOKEN,
    GroupCommSystem,
    build_group_comm_system,
    register_standard_protocols,
)
from .comparison import ComparisonResult, ComparisonRow, run_comparison
from .figure5 import Figure5Result, run_figure5
from .figure6 import Figure6Point, Figure6Result, run_figure6, run_one_config

__all__ = [
    "GroupCommSystem",
    "build_group_comm_system",
    "register_standard_protocols",
    "PROTOCOL_CT",
    "PROTOCOL_SEQ",
    "PROTOCOL_TOKEN",
    "PROTOCOL_CONSENSUS_CT",
    "Figure5Result",
    "run_figure5",
    "Figure6Point",
    "Figure6Result",
    "run_figure6",
    "run_one_config",
    "ComparisonRow",
    "ComparisonResult",
    "run_comparison",
    "ConcurrentChangeOutcome",
    "CreationCostPoint",
    "run_concurrent_change_ablation",
    "run_creation_cost_ablation",
]
