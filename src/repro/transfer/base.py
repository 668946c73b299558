"""The engine kinds of Table III and the base of the unified-memory engine.

Filter, compaction and zero-copy are priced from frontier totals by the
execution context, so :class:`TransferEngine` has one subclass:
unified-memory paging deduplicates pages across vertices, so it prices a
vertex set (``UnifiedMemoryEngine.transfer_task``) as the bytes that
cross PCIe and the seconds they cost.
"""

from __future__ import annotations

from enum import Enum

from repro.graph.csr import CSRGraph
from repro.sim.pcie import PCIeModel

__all__ = ["EngineKind", "ENGINE_LABEL", "TransferEngine"]


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


class TransferEngine:
    """Base class: one engine bound to one graph and the session's PCIe model."""

    kind: EngineKind

    def __init__(self, graph: CSRGraph, pcie: PCIeModel):
        self.graph = graph
        self.config = pcie.config
        self.pcie = pcie
