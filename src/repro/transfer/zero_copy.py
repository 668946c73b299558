"""ImpTM-zero-copy: on-demand per-vertex access over pinned host memory.

The zero-copy approach (EMOGI — Section II-C) maps pinned host memory into
the GPU address space; GPU warps read the neighbors of each active vertex
directly with merged, 128-byte-aligned memory requests.  No CPU work and
no page migration, but PCIe efficiency depends on how well the requests
saturate: low-degree vertices issue mostly-empty requests (Figure 3e/3f),
and there is no data reuse across iterations.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.graph.csr import CSRGraph
from repro.sim.config import HardwareConfig
from repro.transfer.base import EngineKind, TransferEngine, TransferOutcome

__all__ = ["ZeroCopyEngine"]


class ZeroCopyEngine(TransferEngine):
    """Fine-grained zero-copy transfers of active adjacency lists."""

    kind = EngineKind.IMP_ZERO_COPY

    def __init__(self, graph: CSRGraph, config: HardwareConfig):
        super().__init__(graph, config)
        #: Requests per vertex: static, the CSR layout fixes them.
        self._requests = self.pcie.vertex_requests(graph)

    def transfer_task(self, active_vertices: np.ndarray, cuts: Sequence[int]) -> TransferOutcome:
        """One vectorised pass over the task's vertices.

        The zero-copy cost model is per-vertex and, within a partition,
        linear in the request and payload totals, so the per-vertex
        request table is reduced per partition with exact integer prefix
        sums; each partition then pays its :meth:`partition_prices`, and
        ``np.add.accumulate`` adds those left to right.
        """
        active_vertices = np.asarray(active_vertices, dtype=np.int64)
        if active_vertices.size == 0:
            return TransferOutcome(self.kind, 0, 0.0, overlapped=True)
        cuts = np.asarray(cuts)
        request_prefix = np.concatenate([[0], np.cumsum(self._requests[active_vertices])])
        degree_prefix = np.concatenate([[0], np.cumsum(self._active_degrees(active_vertices))])
        payload_per_partition, partition_times = self.partition_prices(
            request_prefix[cuts[1:]] - request_prefix[cuts[:-1]],
            degree_prefix[cuts[1:]] - degree_prefix[cuts[:-1]],
        )
        return TransferOutcome(
            engine=self.kind,
            bytes_transferred=int(payload_per_partition.sum()),
            transfer_time=float(np.add.accumulate(partition_times)[-1]),
            cpu_time=0.0,
            overlapped=True,
        )

    def partition_prices(self, requests: np.ndarray, active_edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Payload bytes and seconds of reading partitions, element-wise.

        ``requests`` and ``active_edges`` are each partition's zero-copy
        request and active out-edge totals (exact integers); the price is
        :meth:`~repro.sim.pcie.PCIeModel.zero_copy_time` of those totals.
        """
        payload = active_edges * self.graph.edge_bytes_per_edge
        return payload, self.pcie.zero_copy_time(requests, payload)
