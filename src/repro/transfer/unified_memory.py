"""ImpTM-unified-memory: page-granular automatic migration with a device cache.

The unified-memory approach (HALO, Grus — Section II-C) keeps the edge
arrays in managed memory: touching an absent 4-KB page triggers a fault,
TLB invalidation and a page migration over PCIe.  Migrated pages stay
cached in device memory until evicted (LRU here), so a graph small enough
to fit is transferred only once — which is exactly why the UM-based
systems win on the SK graph in Table V — while larger graphs thrash.
Because the paper enables ``cudaMemAdviseSetReadMostly``, evictions are
free (pages are discarded, not written back).
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.partition import EdgePartition
from repro.sim.config import HardwareConfig
from repro.sim.memory import PageCache
from repro.transfer.base import EngineKind, TransferEngine, TransferOutcome

__all__ = ["UnifiedMemoryEngine"]


class UnifiedMemoryEngine(TransferEngine):
    """Unified-memory on-demand paging with an LRU device-side cache."""

    kind = EngineKind.IMP_UNIFIED_MEMORY

    def __init__(self, graph: CSRGraph, config: HardwareConfig, cache_bytes: int | None = None):
        super().__init__(graph, config)
        capacity_bytes = config.gpu_memory_bytes if cache_bytes is None else cache_bytes
        self.cache = PageCache(max(0, capacity_bytes // config.um_page_bytes))

    def reset(self) -> None:
        # A new run starts with a cold cache AND fresh statistics — the
        # per-run page_cache_stats extras must not accumulate across runs
        # now that systems keep one engine instance for their lifetime.
        self.cache = PageCache(self.cache.capacity_pages)

    def transfer(self, partition: EdgePartition, active_vertices: np.ndarray) -> TransferOutcome:
        active_vertices = np.asarray(active_vertices, dtype=np.int64)
        if active_vertices.size == 0:
            return TransferOutcome(self.kind, 0, 0.0, overlapped=True)
        degrees = self._active_degrees(active_vertices)
        start_bytes = self._edge_start_bytes(active_vertices)
        lengths = degrees * self.graph.edge_bytes_per_edge
        pages = self.pcie.pages_for_byte_ranges(start_bytes, lengths)
        access = self.cache.access(pages)
        return TransferOutcome(
            engine=self.kind,
            bytes_transferred=access.faults * self.config.um_page_bytes,
            transfer_time=self.pcie.page_migration_time(access.faults),
            cpu_time=0.0,
            overlapped=True,
        )
