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

from repro.metrics.results import IterationStats
from repro.runtime.driver import IterationPlan, QuerySession
from repro.sim.streams import StreamTask
from repro.systems.base import GraphSystem
from repro.transfer.base import EngineKind
from repro.transfer.zero_copy import ZeroCopyEngine

__all__ = ["EmogiSystem"]


class EmogiSystem(GraphSystem):
    """Synchronous zero-copy graph traversal."""

    name = "EMOGI"
    supports_multi_device = True

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.engine = ZeroCopyEngine(self.graph, self.config)

    def plan_iteration(self, session: QuerySession) -> IterationPlan:
        pending = session.pending
        frontier = self.driver.snapshot(pending)

        device_tasks: list[list[StreamTask]] = self.context.empty_device_lists()
        transfer_bytes = 0
        active_devices = 0
        for device, device_active in enumerate(frontier.per_device):
            if device_active.size == 0:
                continue
            active_devices += 1
            outcome = self.engine.transfer(self.partitioning[0], device_active)
            kernel_time = self.kernel_model.kernel_time(self._active_edge_count(device_active))
            transfer_bytes += outcome.bytes_transferred
            device_tasks[device].append(
                StreamTask(
                    name="zero-copy-frontier-d%d" % device,
                    engine=EngineKind.IMP_ZERO_COPY.value,
                    transfer_time=outcome.transfer_time,
                    kernel_time=kernel_time,
                    overlapped_transfer=True,
                )
            )

        # Synchronous processing: every device pushes its shard's frontier.
        pending[frontier.active_ids] = False
        remote_updates = [0] * self.context.num_devices
        self.driver.process_per_device(
            session.program, session.state, pending, frontier.per_device, remote_updates
        )

        stats = IterationStats(
            index=session.iteration,
            time=0.0,
            active_vertices=frontier.active_vertices,
            active_edges=frontier.active_edges,
            transfer_bytes=transfer_bytes,
            processed_edges=frontier.active_edges,
            engine_partitions={EngineKind.IMP_ZERO_COPY.value: active_devices},
            engine_tasks={EngineKind.IMP_ZERO_COPY.value: active_devices},
        )
        return IterationPlan(stats=stats, device_tasks=device_tasks, remote_updates=remote_updates)
