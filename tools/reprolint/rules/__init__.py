"""Rule registry: every reprolint rule, in rule-id order."""

from __future__ import annotations

from tools.reprolint.rules.base import Rule
from tools.reprolint.rules.rl001_hot_loops import HotLoopPurity
from tools.reprolint.rules.rl002_determinism import SerializationDeterminism
from tools.reprolint.rules.rl003_lock_discipline import LockDiscipline
from tools.reprolint.rules.rl004_layering import EngineLayering
from tools.reprolint.rules.rl005_wall_clock import NoWallClock
from tools.reprolint.rules.rl006_obs_guard import ObsGuardDiscipline
from tools.reprolint.rules.rl007_storage_seam import StorageSeamLayering
from tools.reprolint.rules.rl008_metric_names import MetricNameDiscipline
from tools.reprolint.rules.rl009_process_pool import ProcessPoolSeam

ALL_RULES: tuple[Rule, ...] = (
    HotLoopPurity(),
    SerializationDeterminism(),
    LockDiscipline(),
    EngineLayering(),
    NoWallClock(),
    ObsGuardDiscipline(),
    StorageSeamLayering(),
    MetricNameDiscipline(),
    ProcessPoolSeam(),
)

__all__ = [
    "ALL_RULES",
    "EngineLayering",
    "HotLoopPurity",
    "LockDiscipline",
    "MetricNameDiscipline",
    "NoWallClock",
    "ObsGuardDiscipline",
    "ProcessPoolSeam",
    "Rule",
    "SerializationDeterminism",
    "StorageSeamLayering",
]
