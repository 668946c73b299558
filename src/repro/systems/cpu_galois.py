"""CPU-only in-memory baseline (the "Galois" row of Table V).

A shared-memory CPU framework keeps the whole graph in host DRAM, so it
never pays PCIe transfers at all — its cost is simply that a 10-core CPU
pushes edges an order of magnitude slower than a GPU.  The paper includes
it to show that the GPU-accelerated systems are worth the transfer
management trouble (5.3x-12.8x speedups for HyTGraph).

The system runs on the unified execution runtime with an empty device
schedule: its whole iteration time is CPU processing, charged as plan
overhead.
"""

from __future__ import annotations

from repro.metrics.results import IterationStats
from repro.runtime.driver import IterationPlan, QuerySession
from repro.systems.base import GraphSystem

__all__ = ["CPUGaloisSystem"]


class CPUGaloisSystem(GraphSystem):
    """In-memory CPU execution with no host-GPU traffic."""

    name = "Galois"

    def plan_iteration(self, session: QuerySession) -> IterationPlan:
        pending = session.pending
        frontier = self.driver.snapshot(pending)
        iteration_time = self.kernel_model.cpu_processing_time(frontier.active_edges)

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
            transfer_bytes=0,
            compaction_time=0.0,
            transfer_time=0.0,
            kernel_time=iteration_time,
            processed_edges=frontier.active_edges,
            engine_partitions={"CPU": 1},
            engine_tasks={"CPU": 1},
        )
        return IterationPlan(
            stats=stats,
            device_tasks=self.context.empty_device_lists(),
            remote_updates=remote_updates,
            overhead_time=iteration_time,
            busy_fields=(),
        )
