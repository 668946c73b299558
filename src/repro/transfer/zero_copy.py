"""ImpTM-zero-copy: on-demand per-vertex access over pinned host memory.

The zero-copy approach (EMOGI — Section II-C) maps pinned host memory into
the GPU address space; GPU warps read the neighbors of each active vertex
directly with merged, 128-byte-aligned memory requests.  No CPU work and
no page migration, but PCIe efficiency depends on how well the requests
saturate: low-degree vertices issue mostly-empty requests (Figure 3e/3f),
and there is no data reuse across iterations.
"""

from __future__ import annotations

import numpy as np

from repro.transfer.base import EngineKind, TransferEngine

__all__ = ["ZeroCopyEngine"]


class ZeroCopyEngine(TransferEngine):
    """Fine-grained zero-copy transfers of active adjacency lists."""

    kind = EngineKind.IMP_ZERO_COPY

    def partition_prices(self, requests: np.ndarray, active_edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Payload bytes and seconds of reading partitions, element-wise.

        ``requests`` and ``active_edges`` are each partition's zero-copy
        request and active out-edge totals (exact integers); the price is
        :meth:`~repro.sim.pcie.PCIeModel.zero_copy_time` of those totals.
        The cost is linear in both, so a device's summed totals price the
        same as its vertices one by one.
        """
        payload = active_edges * self.graph.edge_bytes_per_edge
        return payload, self.pcie.zero_copy_time(requests, payload)
