"""Common interface of the transfer engines.

Every engine prices moving the active subgraph of a partition (or of a
multi-partition task) as one :class:`TransferOutcome`: the bytes that
cross PCIe and the seconds of PCIe and host-CPU time they cost.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.partition import EdgePartition
from repro.sim.config import HardwareConfig
from repro.sim.pcie import PCIeModel

__all__ = ["EngineKind", "TransferOutcome", "TransferEngine"]


class EngineKind(str, Enum):
    """The transfer management approaches of Table III."""

    EXP_FILTER = "ExpTM-F"
    EXP_COMPACTION = "ExpTM-C"
    IMP_ZERO_COPY = "ImpTM-ZC"
    IMP_UNIFIED_MEMORY = "ImpTM-UM"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


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
    def transfer(self, partition: EdgePartition, active_vertices: np.ndarray) -> TransferOutcome:
        """Move the active subgraph of ``partition`` to the GPU.

        ``active_vertices`` are the active vertex ids whose adjacency
        lists live in ``partition`` (callers guarantee containment).
        """

    def transfer_task(
        self,
        partitions: Sequence[EdgePartition],
        active_vertices: np.ndarray,
        cuts: np.ndarray,
    ) -> TransferOutcome:
        """Aggregate outcome of transferring one multi-partition task.

        ``active_vertices`` is the task's sorted active-vertex array and
        ``cuts`` (length ``len(partitions) + 1``) slices it per partition:
        partition ``i`` owns ``active_vertices[cuts[i]:cuts[i + 1]]``.

        The default implementation loops over :meth:`transfer`; the hot
        engines override it with a vectorised pass that produces the same
        per-partition accounting (including per-partition TLP rounding)
        without one Python call per partition.
        """
        bytes_total = 0
        transfer_time = 0.0
        cpu_time = 0.0
        overlapped = False
        for position, partition in enumerate(partitions):
            outcome = self.transfer(partition, active_vertices[cuts[position] : cuts[position + 1]])
            bytes_total += outcome.bytes_transferred
            transfer_time += outcome.transfer_time
            cpu_time += outcome.cpu_time
            overlapped = overlapped or outcome.overlapped
        return TransferOutcome(
            engine=self.kind,
            bytes_transferred=bytes_total,
            transfer_time=transfer_time,
            cpu_time=cpu_time,
            overlapped=overlapped,
        )

    def reset(self) -> None:
        """Clear any cross-iteration state (page caches); default no-op."""

    def _active_degrees(self, active_vertices: np.ndarray) -> np.ndarray:
        return self.graph.out_degrees[np.asarray(active_vertices, dtype=np.int64)]

    def _edge_start_bytes(self, active_vertices: np.ndarray) -> np.ndarray:
        starts = self.graph.row_offset[np.asarray(active_vertices, dtype=np.int64)]
        return starts * self.graph.edge_bytes_per_edge
