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

from repro.graph.partition import EdgePartition
from repro.transfer.base import EngineKind, TransferEngine, TransferOutcome

__all__ = ["ZeroCopyEngine"]


class ZeroCopyEngine(TransferEngine):
    """Fine-grained zero-copy transfers of active adjacency lists."""

    kind = EngineKind.IMP_ZERO_COPY

    def transfer(self, partition: EdgePartition, active_vertices: np.ndarray) -> TransferOutcome:
        active_vertices = np.asarray(active_vertices, dtype=np.int64)
        if active_vertices.size == 0:
            return TransferOutcome(self.kind, 0, 0.0, overlapped=True)
        access = self.pcie.zero_copy_access(
            self._active_degrees(active_vertices),
            start_bytes=self._edge_start_bytes(active_vertices),
            value_bytes=self.graph.edge_bytes_per_edge,
        )
        return TransferOutcome(
            engine=self.kind,
            bytes_transferred=access.payload_bytes,
            transfer_time=access.time,
            cpu_time=0.0,
            overlapped=True,
        )

    def transfer_task(
        self,
        partitions: Sequence[EdgePartition],
        active_vertices: np.ndarray,
        cuts: np.ndarray,
    ) -> TransferOutcome:
        """One vectorised pass over the task's vertices.

        The zero-copy cost model is per-vertex and, within a partition,
        linear in the request and payload totals, so per-vertex requests
        are computed once and reduced per partition with exact integer
        prefix sums; the per-partition times then follow the same formula
        (and the same accumulation order) as the :meth:`transfer` loop.
        """
        active_vertices = np.asarray(active_vertices, dtype=np.int64)
        if active_vertices.size == 0:
            return TransferOutcome(self.kind, 0, 0.0, overlapped=True)
        d1 = self.graph.edge_bytes_per_edge
        degrees = self._active_degrees(active_vertices)
        requests = self.pcie.requests_for_vertices(
            degrees, start_bytes=self._edge_start_bytes(active_vertices), value_bytes=d1
        )
        request_prefix = np.concatenate([[0], np.cumsum(requests)])
        degree_prefix = np.concatenate([[0], np.cumsum(degrees)])
        requests_per_partition = request_prefix[cuts[1:]] - request_prefix[cuts[:-1]]
        payload_per_partition = (degree_prefix[cuts[1:]] - degree_prefix[cuts[:-1]]) * d1
        transfer_time = 0.0
        for partition_requests, partition_payload in zip(
            requests_per_partition.tolist(), payload_per_partition.tolist()
        ):
            transfer_time += self.pcie.zero_copy_time(partition_requests, partition_payload)
        return TransferOutcome(
            engine=self.kind,
            bytes_transferred=int(payload_per_partition.sum()),
            transfer_time=transfer_time,
            cpu_time=0.0,
            overlapped=True,
        )
