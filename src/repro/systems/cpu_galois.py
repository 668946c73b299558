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

from repro.runtime.driver import IterationPlan, QuerySession
from repro.systems.base import GraphSystem

__all__ = ["CPUGaloisSystem"]


class CPUGaloisSystem(GraphSystem):
    """In-memory CPU execution with no host-GPU traffic."""

    name = "Galois"

    def plan_iteration(self, session: QuerySession) -> IterationPlan:
        frontier = self.driver.snapshot(session.pending)
        iteration_time = self.kernel_model.cpu_processing_time(frontier.active_edges)
        plan = self._synchronous_plan(
            session, frontier, self.context.empty_device_lists(), 0, {"CPU": 1},
            overhead_time=iteration_time, busy_fields=(),
        )
        plan.stats.kernel_time = iteration_time
        return plan
