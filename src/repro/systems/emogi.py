"""EMOGI-style ImpTM-zero-copy system (VLDB 2020).

EMOGI keeps the edge arrays pinned in host memory and lets GPU warps read
the neighbors of each active vertex directly through zero-copy with
merged, 128-byte-aligned accesses.  There is no CPU stage and no explicit
transfer; the implicit transfer overlaps the kernel, so an iteration's
time is essentially ``max(zero-copy traffic time, kernel time)``.

Its weakness — the reason HyTGraph beats it on dense frontiers — is that
low-degree active vertices issue mostly-empty memory requests, wasting
PCIe bandwidth (Figures 3e/3f), and there is no data reuse at all across
iterations (or across the queries of a batch: zero-copy reads are
on-demand and leave nothing on the device to share).

On multi-device sessions every device issues zero-copy reads for the
active vertices of its own shard; all reads cross the shared host PCIe
complex, each device's kernel overlaps its own reads, and the iteration
ends with the boundary-delta exchange.  Sharding splits the work but not
the traffic.

The device-memory cache subsystem (:mod:`repro.cache`) is wired through
the shared runtime, but zero-copy reads never populate it: they move
only the requested words and leave no reusable partition image in
device memory, so EMOGI's ``cache_hit_bytes`` stay zero under every
policy — which is precisely its no-reuse weakness, now visible in the
metrics.
"""

from __future__ import annotations

import numpy as np

from repro.runtime.driver import IterationPlan, QuerySession
from repro.sim.streams import StreamTask
from repro.systems.base import GraphSystem
from repro.transfer.base import EngineKind

__all__ = ["EmogiSystem"]


class EmogiSystem(GraphSystem):
    """Synchronous zero-copy graph traversal."""

    name = "EMOGI"
    supports_multi_device = True

    def plan_iteration(self, session: QuerySession) -> IterationPlan:
        frontier = self.driver.snapshot(session.pending)
        # Each device reads its shard's frontier: one task priced from the
        # shard's summed per-partition totals.
        shards = frontier.totals.sum_over(self.sharding.partition_bounds)
        moved, seconds = self.context.zero_copy_prices(shards.zero_copy_requests, shards.active_edges)
        kernel_times = self.kernel_model.kernel_times(shards.active_edges).tolist()

        device_tasks: list[list[StreamTask]] = self.context.empty_device_lists()
        active = np.flatnonzero(shards.active_vertices).tolist()
        for device, transfer_time in zip(active, seconds[active].tolist()):
            device_tasks[device].append(
                StreamTask(
                    name="zero-copy-frontier-d%d" % device,
                    engine=EngineKind.IMP_ZERO_COPY.value,
                    transfer_time=transfer_time,
                    kernel_time=kernel_times[device],
                    overlapped_transfer=True,
                )
            )

        return self._synchronous_plan(
            session, frontier, device_tasks, int(moved.sum()),
            {EngineKind.IMP_ZERO_COPY.value: len(active)},
        )
