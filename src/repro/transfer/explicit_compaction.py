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

from typing import Sequence

import numpy as np

from repro.transfer.base import EngineKind, TransferEngine, TransferOutcome

__all__ = ["ExplicitCompactionEngine"]


class ExplicitCompactionEngine(TransferEngine):
    """CPU compaction followed by explicit copy."""

    kind = EngineKind.EXP_COMPACTION

    def transfer_task(self, active_vertices: np.ndarray, cuts: Sequence[int]) -> TransferOutcome:
        """Per-partition compaction pricing from exact integer prefix sums.

        Each partition with active vertices packs Formula 2's volume,
        ``sum(Do(v)) * d1 + |A| * d2``: the active neighbours (plus weights
        when present) and one fresh index entry per vertex.  The host CPU
        produces it at the configured compaction throughput (the paper
        keeps this a simple throughput model, Section VIII) and one
        explicit copy ships it, with its own TLP rounding.
        """
        active_vertices = np.asarray(active_vertices, dtype=np.int64)
        if active_vertices.size == 0:
            return TransferOutcome(self.kind, 0, 0.0)
        config = self.config
        d1 = config.vertex_value_bytes
        if self.graph.is_weighted:
            d1 += config.vertex_value_bytes
        cuts = np.asarray(cuts)
        degree_prefix = np.concatenate([[0], np.cumsum(self._active_degrees(active_vertices))])
        slice_edges = degree_prefix[cuts[1:]] - degree_prefix[cuts[:-1]]
        bytes_total = 0
        transfer_time = 0.0
        cpu_time = 0.0
        for active_edges, count in zip(slice_edges.tolist(), np.diff(cuts).tolist()):
            if count == 0:
                continue
            output_bytes = active_edges * d1 + count * config.index_entry_bytes
            bytes_total += output_bytes
            cpu_time += output_bytes / config.cpu_compaction_throughput
            transfer_time += self.pcie.explicit_copy_time(output_bytes)
        return TransferOutcome(
            engine=self.kind,
            bytes_transferred=bytes_total,
            transfer_time=transfer_time,
            cpu_time=cpu_time,
            overlapped=False,
        )
