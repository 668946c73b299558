"""Grus-style hybrid unified-memory / zero-copy system (TACO 2021).

Grus manages the host-resident edge data with priorities: high-priority
data (the adjacency lists of high-degree vertices, which are the most
likely to be accessed repeatedly) is prefetched into device memory through
unified memory, and everything that does not fit is accessed through
zero-copy on demand.  Unlike HyTGraph, the split is static — it does not
consider the per-iteration processing cost of the two mechanisms — which
is exactly the difference the paper's comparison isolates.

When the whole graph fits in device memory Grus degenerates to "load once,
then run at device speed", matching its strong numbers on the SK graph and
on the small end of the Figure 9 scaling sweep.

Grus runs on the unified execution runtime but keeps
``supports_multi_device = False``: its static single-cache prefetch plan
has no sharded counterpart here, so multi-device configs are refused at
construction (and earlier, with a clear error, by the workload builder
and the CLI).

Modelling note: Grus's zero-copy fallback predates EMOGI's merged/aligned
warp access, so its on-demand reads are modelled at 32-byte request
granularity (the unoptimised coalescing of Figure 3e) rather than the
128-byte requests EMOGI issues.  DESIGN.md records this substitution.
"""

from __future__ import annotations

import numpy as np

from repro.metrics.results import RunResult
from repro.runtime.driver import IterationPlan, QuerySession
from repro.sim.streams import StreamTask
from repro.systems.base import GraphSystem
from repro.transfer.base import EngineKind

__all__ = ["GrusSystem"]

# Request granularity of Grus's zero-copy fallback (no merged/aligned
# access, so accesses coalesce at the 32-byte sector level).
GRUS_ZC_REQUEST_BYTES = 32


class GrusSystem(GraphSystem):
    """Priority prefetch into unified memory plus zero-copy fallback."""

    name = "Grus"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        pcie = self.context.pcie
        self._zc_throughput = pcie.zero_copy_throughput(GRUS_ZC_REQUEST_BYTES)
        self._vertex_cached, self._prefetched_bytes = self._plan_prefetch()
        # The prefetch happens once, through the unified-memory migration
        # path; charge it as preprocessing-like setup on the first
        # iteration after a warm-state reset.  The prefetched data is
        # query-independent, so a batch pays it once, not once per query.
        self._prefetch_time = pcie.page_migration_time(
            int(np.ceil(self._prefetched_bytes / self.config.um_page_bytes))
        )
        self._prefetch_pending = True

    def reset_run_state(self) -> None:
        super().reset_run_state()
        self._prefetch_pending = True

    def _plan_prefetch(self) -> tuple[np.ndarray, int]:
        """Decide which vertices' adjacency lists are cached on the device.

        Vertices are considered in descending out-degree order (the Grus
        priority) and admitted until device memory is exhausted.  Returns
        the boolean ``vertex_cached`` mask and the prefetched byte volume.
        """
        budget = self.config.gpu_memory_bytes
        per_edge = self.graph.edge_bytes_per_edge
        order = np.argsort(-self.graph.out_degrees, kind="stable")
        sizes = self.graph.out_degrees[order] * per_edge
        cumulative = np.cumsum(sizes)
        admitted = cumulative <= budget
        cached = np.zeros(self.graph.num_vertices, dtype=bool)
        cached[order[admitted]] = True
        prefetched_bytes = int(cumulative[admitted][-1]) if admitted.any() else 0
        return cached, prefetched_bytes

    def _annotate_result(self, result: RunResult, session: QuerySession) -> None:
        result.extra["cached_vertices"] = int(self._vertex_cached.sum())
        result.extra["prefetched_bytes"] = self._prefetched_bytes

    def plan_iteration(self, session: QuerySession) -> IterationPlan:
        frontier = self.driver.snapshot(session.pending)
        active_vertices = frontier.active_ids

        cached_active = active_vertices[self._vertex_cached[active_vertices]]
        uncached_active = active_vertices[~self._vertex_cached[active_vertices]]

        uncached_edges = self._active_edge_count(uncached_active)
        miss_kernel, cached_kernel = self.kernel_model.kernel_times(
            [uncached_edges, self._active_edge_count(cached_active)]
        ).tolist()

        device_tasks: list[list[StreamTask]] = self.context.empty_device_lists()
        transfer_bytes = 0
        transfer_time = 0.0
        if uncached_active.size:
            uncached_bytes = uncached_edges * self.graph.edge_bytes_per_edge
            zc_time = uncached_bytes / self._zc_throughput
            transfer_bytes += uncached_bytes
            transfer_time += zc_time
            device_tasks[0].append(
                StreamTask(
                    name="zero-copy-miss",
                    engine=EngineKind.IMP_ZERO_COPY.value,
                    transfer_time=zc_time,
                    kernel_time=miss_kernel,
                    overlapped_transfer=True,
                )
            )
        if cached_active.size:
            device_tasks[0].append(
                StreamTask(
                    name="um-cached",
                    engine=EngineKind.IMP_UNIFIED_MEMORY.value,
                    transfer_time=0.0,
                    kernel_time=cached_kernel,
                    overlapped_transfer=True,
                )
            )

        overhead_time = 0.0
        if self._prefetch_pending:
            overhead_time = self._prefetch_time
            transfer_bytes += self._prefetched_bytes
            transfer_time += self._prefetch_time
            self._prefetch_pending = False

        plan = self._synchronous_plan(
            session, frontier, device_tasks, transfer_bytes,
            {
                EngineKind.IMP_UNIFIED_MEMORY.value: int(cached_active.size > 0),
                EngineKind.IMP_ZERO_COPY.value: int(uncached_active.size > 0),
            },
            {task.engine: 1 for task in device_tasks[0]},
            overhead_time=overhead_time,
            busy_fields=("gpu",),
        )
        # The one-off prefetch is accounted in transfer_time but not
        # scheduled as a stream task, so the planner owns this field.
        plan.stats.transfer_time = transfer_time
        return plan
