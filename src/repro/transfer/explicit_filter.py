"""ExpTM-filter: transfer whole active partitions with explicit copy.

The filter-based explicit approach (GraphReduce, GTS, Graphie — Section
II-B) only checks *whether* a partition contains an active edge; if it
does, the entire partition is shipped with ``cudaMemcpy``.  The upside is
maximal PCIe utilisation (fully saturated TLPs, no CPU work); the downside
is redundant bytes whenever the partition's active-edge proportion is low
(Figure 3a).
"""

from __future__ import annotations

import numpy as np

from repro.graph.partition import EdgePartition
from repro.transfer.base import EngineKind, TransferEngine, TransferOutcome

__all__ = ["ExplicitFilterEngine"]


class ExplicitFilterEngine(TransferEngine):
    """Whole-partition explicit transfers."""

    kind = EngineKind.EXP_FILTER

    def transfer(self, partition: EdgePartition, active_vertices: np.ndarray) -> TransferOutcome:
        active_vertices = np.asarray(active_vertices, dtype=np.int64)
        if active_vertices.size == 0:
            # A partition with no active edges is filtered out entirely.
            return TransferOutcome(self.kind, 0, 0.0)
        num_bytes = partition.edge_bytes
        time = self.pcie.explicit_copy_time(num_bytes)
        active_edges = int(self._active_degrees(active_vertices).sum())
        return TransferOutcome(
            engine=self.kind,
            bytes_transferred=num_bytes,
            transfer_time=time,
            cpu_time=0.0,
            overlapped=False,
            detail={
                "tlps": float(self.pcie.explicit_copy_tlps(num_bytes)),
                "active_edges": float(active_edges),
                "partition_edges": float(partition.num_edges),
                "redundant_bytes": float(num_bytes - active_edges * self.graph.edge_bytes_per_edge),
            },
        )
