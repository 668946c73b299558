"""ExpTM-compaction: CPU-compacted active-edge transfers.

The compaction-based explicit approach (Subway, Scaph, Ascetic — Section
II-B) removes the inactive edges on the CPU, packs the survivors into a
contiguous buffer together with a fresh index array, and ships that with
``cudaMemcpy``.  It minimises transferred bytes but pays CPU time and
main-memory traffic proportional to the active edge volume (Figure 3b/3c).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.graph.partition import EdgePartition
from repro.sim.compaction import CompactionEngine
from repro.transfer.base import EngineKind, TransferEngine, TransferOutcome

__all__ = ["ExplicitCompactionEngine"]


class ExplicitCompactionEngine(TransferEngine):
    """CPU compaction followed by explicit copy."""

    kind = EngineKind.EXP_COMPACTION

    def __init__(self, graph, config):
        super().__init__(graph, config)
        self._compactor = CompactionEngine(config)

    def transfer(self, partition: EdgePartition, active_vertices: np.ndarray) -> TransferOutcome:
        active_vertices = np.asarray(active_vertices, dtype=np.int64)
        if active_vertices.size == 0:
            return TransferOutcome(self.kind, 0, 0.0)
        active_edges = int(self._active_degrees(active_vertices).sum())
        output_bytes = self._compactor.output_bytes(
            active_edges, active_vertices.size, self.graph.is_weighted
        )
        return TransferOutcome(
            engine=self.kind,
            bytes_transferred=output_bytes,
            transfer_time=self.pcie.explicit_copy_time(output_bytes),
            cpu_time=self._compactor.cpu_time(output_bytes),
            overlapped=False,
        )

    def transfer_task(
        self,
        partitions: Sequence[EdgePartition],
        active_vertices: np.ndarray,
        cuts: np.ndarray,
    ) -> TransferOutcome:
        """Per-partition compaction pricing from exact integer prefix sums.

        Output bytes and CPU time are linear in each partition's active
        edge/vertex counts and the transfer time keeps its per-partition
        TLP rounding, so the result matches the :meth:`transfer` loop bit
        for bit.
        """
        active_vertices = np.asarray(active_vertices, dtype=np.int64)
        if active_vertices.size == 0:
            return TransferOutcome(self.kind, 0, 0.0)
        degrees = self._active_degrees(active_vertices)
        degree_prefix = np.concatenate([[0], np.cumsum(degrees)])
        edges_per_partition = degree_prefix[cuts[1:]] - degree_prefix[cuts[:-1]]
        counts_per_partition = np.diff(cuts)
        weighted = self.graph.is_weighted
        bytes_total = 0
        transfer_time = 0.0
        cpu_time = 0.0
        for active_edges, count in zip(edges_per_partition.tolist(), counts_per_partition.tolist()):
            if count == 0:
                continue
            output_bytes = self._compactor.output_bytes(active_edges, count, weighted)
            bytes_total += output_bytes
            cpu_time += self._compactor.cpu_time(output_bytes)
            transfer_time += self.pcie.explicit_copy_time(output_bytes)
        return TransferOutcome(
            engine=self.kind,
            bytes_transferred=bytes_total,
            transfer_time=transfer_time,
            cpu_time=cpu_time,
            overlapped=False,
        )
