"""ExpTM-compaction: CPU-compacted active-edge transfers.

The compaction-based explicit approach (Subway, Scaph, Ascetic — Section
II-B) removes the inactive edges on the CPU, packs the survivors into a
contiguous buffer together with a fresh index array, and ships that with
``cudaMemcpy``.  It minimises transferred bytes but pays CPU time and
main-memory traffic proportional to the active edge volume (Figure 3b/3c).

The engine only *prices* that work; no sub-CSR is built — the vertex
programs push from the original CSR, so compaction never affects values.
"""

from __future__ import annotations

import numpy as np

from repro.transfer.base import EngineKind, TransferEngine

__all__ = ["ExplicitCompactionEngine"]


class ExplicitCompactionEngine(TransferEngine):
    """CPU compaction followed by explicit copy."""

    kind = EngineKind.EXP_COMPACTION

    def partition_prices(
        self, active_edges: np.ndarray, active_vertices: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Packed bytes, CPU seconds and copy seconds of partitions, element-wise.

        A partition packs Formula 2's volume, ``sum(Do(v)) * d1 + |A| *
        d2``: the active adjacency lists at the CSR's own bytes per edge
        (neighbours plus weights when present, what ExpTM-filter ships
        per edge) and one fresh index entry per active vertex.  The host
        CPU produces it at the configured compaction throughput (the
        paper keeps this a simple throughput model, Section VIII) and one
        explicit copy ships it, with its own TLP rounding.  A task of
        several partitions pays each partition's price; a baseline that
        compacts a device's whole frontier at once prices its summed
        totals.
        """
        config = self.config
        output_bytes = active_edges * self.graph.edge_bytes_per_edge + active_vertices * config.index_entry_bytes
        return (
            output_bytes,
            output_bytes / config.cpu_compaction_throughput,
            self.pcie.explicit_copy_time(output_bytes),
        )
