"""Common interface of the transfer engines.

Every engine prices moving the active subgraph of one task — one or more
consecutive partitions — as one :class:`TransferOutcome`: the bytes that
cross PCIe and the seconds of PCIe and host-CPU time they cost.
:meth:`TransferEngine.transfer_task` is the only pricing call; a
single-mechanism baseline prices its whole frontier as a one-slice task.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from repro.graph.csr import CSRGraph
from repro.sim.config import HardwareConfig
from repro.sim.pcie import PCIeModel

__all__ = ["EngineKind", "ENGINE_LABEL", "TransferOutcome", "TransferEngine"]


class EngineKind(str, Enum):
    """The transfer management approaches of Table III."""

    EXP_FILTER = "ExpTM-F"
    EXP_COMPACTION = "ExpTM-C"
    IMP_ZERO_COPY = "ImpTM-ZC"
    IMP_UNIFIED_MEMORY = "ImpTM-UM"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: ``EngineKind.value`` without the enum descriptor (hot paths read it per task).
ENGINE_LABEL = {kind: kind.value for kind in EngineKind}


@dataclass(frozen=True)
class TransferOutcome:
    """What one engine invocation moved and what it cost.

    Attributes
    ----------
    engine:
        Which engine produced the outcome.
    bytes_transferred:
        Useful edge-data bytes that crossed PCIe (the Table VI volume).
    transfer_time:
        Seconds of PCIe occupancy.
    cpu_time:
        Seconds of host-CPU work (compaction only).
    overlapped:
        Whether the transfer overlaps the kernel on the GPU (implicit
        engines) or precedes it (explicit engines).

    Engine-specific counts (TLPs, page faults) are not carried here: the
    PCIe model computes them on demand, and the unified-memory engine's
    page cache keeps cumulative hit/fault statistics.
    """

    engine: EngineKind
    bytes_transferred: int
    transfer_time: float
    cpu_time: float = 0.0
    overlapped: bool = False


class TransferEngine(ABC):
    """Base class: one engine bound to one graph and one hardware config."""

    kind: EngineKind

    def __init__(self, graph: CSRGraph, config: HardwareConfig):
        self.graph = graph
        self.config = config
        self.pcie = PCIeModel(config)

    @abstractmethod
    def transfer_task(self, active_vertices: np.ndarray, cuts: Sequence[int]) -> TransferOutcome:
        """Move the active subgraph of one task to the GPU.

        ``active_vertices`` is the task's sorted active-vertex array and
        ``cuts`` slices it per partition: the task's partition ``i`` owns
        ``active_vertices[cuts[i]:cuts[i + 1]]``.  ``(0, n)`` prices the
        whole array as one slice.
        """

    def _active_degrees(self, active_vertices: np.ndarray) -> np.ndarray:
        return self.graph.out_degrees[np.asarray(active_vertices, dtype=np.int64)]

    def _edge_start_bytes(self, active_vertices: np.ndarray) -> np.ndarray:
        starts = self.graph.row_offset[np.asarray(active_vertices, dtype=np.int64)]
        return starts * self.graph.edge_bytes_per_edge
