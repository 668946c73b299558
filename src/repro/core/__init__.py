"""HyTGraph's primary contribution: hybrid transfer management.

* :mod:`repro.core.backends` — the scatter-reduce kernels every vertex
  program pushes its updates through (the repo's GPU-kernel stand-ins):
  the numpy reference or the optional numba JIT, called as
  ``active_backend().push_and_activate(...)``.
* :mod:`repro.core.cost_model` — the per-partition transfer-cost formulas
  (1), (2) and (3) of Section V-A.
* :mod:`repro.core.selection` — the α/β engine-selection rule of
  Algorithm 1 (lines 2-13).
* :mod:`repro.core.combiner` — task combination (Algorithm 1 lines 15-24
  plus the pre-combination of compaction / zero-copy partitions).
* :mod:`repro.core.priority` — contribution-driven priority scheduling:
  hub-vertex-driven for traversal algorithms, Δ-driven for accumulative
  ones (Section VI-A).
* :mod:`repro.core.engine` — the HyTGraph planner: cost-aware task
  generation and asynchronous multi-stream task scheduling of one
  iteration (Figure 5); :class:`~repro.systems.hytgraph.HyTGraphSystem`
  runs it to convergence.
"""

from repro.core.backends import (
    KernelBackend,
    available_backends,
    get_backend,
    resolve_backend,
    use_backend,
)
from repro.core.cost_model import CostModel, PartitionCosts
from repro.core.selection import EngineSelector, SelectionThresholds
from repro.core.combiner import ScheduledTask, TaskCombiner
from repro.core.priority import ContributionScheduler
from repro.core.engine import HyTGraphOptions

__all__ = [
    "KernelBackend",
    "available_backends",
    "get_backend",
    "resolve_backend",
    "use_backend",
    "CostModel",
    "PartitionCosts",
    "EngineSelector",
    "SelectionThresholds",
    "ScheduledTask",
    "TaskCombiner",
    "ContributionScheduler",
    "HyTGraphOptions",
]
