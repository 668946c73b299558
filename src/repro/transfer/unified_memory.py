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
from repro.sim.memory import PageCache
from repro.sim.pcie import PCIeModel
from repro.transfer.base import EngineKind, TransferEngine

__all__ = ["UnifiedMemoryEngine"]


class UnifiedMemoryEngine(TransferEngine):
    """Unified-memory on-demand paging with an LRU device-side cache."""

    kind = EngineKind.IMP_UNIFIED_MEMORY

    def __init__(self, graph: CSRGraph, pcie: PCIeModel):
        super().__init__(graph, pcie)
        self.cache = PageCache(max(0, self.config.gpu_memory_bytes // self.config.um_page_bytes))

    def reset(self) -> None:
        # A new run starts with a cold cache AND fresh statistics — the
        # per-run page_cache_stats extras must not accumulate across runs
        # now that systems keep one engine instance for their lifetime.
        self.cache = PageCache(self.cache.capacity_pages)

    def transfer_task(self, active_vertices: np.ndarray) -> tuple[int, float]:
        """Bytes and seconds of ``active_vertices`` as one page-access batch.

        The pages every active adjacency list touches are deduplicated
        and faulted in through the LRU cache in one pass, so the price is
        per vertex set, not a sum of per-partition prices.  Only faulted
        pages cross PCIe; the transfer overlaps the kernel.
        """
        active_vertices = np.asarray(active_vertices, dtype=np.int64)
        if active_vertices.size == 0:
            return 0, 0.0
        graph = self.graph
        start_bytes = graph.row_offset[active_vertices] * graph.edge_bytes_per_edge
        lengths = graph.out_degrees[active_vertices] * graph.edge_bytes_per_edge
        pages = self.pcie.pages_for_byte_ranges(start_bytes, lengths)
        faults = self.cache.access(pages).faults
        return faults * self.config.um_page_bytes, self.pcie.page_migration_time(faults)
