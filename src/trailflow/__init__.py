"""Deterministic simulator and analysis toolkit for bidirectional
pheromone-guided flow on directed graphs.

The package exports what a basic run needs; everything else is imported
from its module (``trailflow.graph``, ``trailflow.analysis``, ...)."""

from .dynamics import EngineConfig, FlowSchedule, init_state, run
from .graph import build_two_path_survival
from .rules import DecisionRule

__all__ = [
    "DecisionRule",
    "EngineConfig",
    "FlowSchedule",
    "build_two_path_survival",
    "init_state",
    "run",
]

__version__ = "0.1.0"
