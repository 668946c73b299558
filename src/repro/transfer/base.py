"""What the transfer engines share: their kind, graph, hardware and PCIe model.

The compaction and zero-copy engines are linear in a partition's
frontier totals, so they price arrays of totals element-wise
(``partition_prices``).  Unified-memory paging deduplicates pages across
vertices, so it alone prices a vertex set, as one
:class:`TransferOutcome` (``UnifiedMemoryEngine.transfer_task``): the
bytes that cross PCIe and the seconds they cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

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


class TransferEngine:
    """Base class: one engine bound to one graph and one hardware config."""

    kind: EngineKind

    def __init__(self, graph: CSRGraph, config: HardwareConfig):
        self.graph = graph
        self.config = config
        self.pcie = PCIeModel(config)
