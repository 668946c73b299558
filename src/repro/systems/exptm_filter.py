"""Pure ExpTM-filter system (the "ExpTM-F" row of Table V).

The paper implements this baseline inside HyTGraph's own codebase for a
fair comparison: every iteration, every partition containing at least one
active edge is shipped to the GPU in full with explicit memory copy and
processed synchronously.  No CPU compaction, no on-demand access — which
means maximum PCIe utilisation per byte but a large volume of redundant
bytes whenever partitions are sparsely active (Figure 3a).

On multi-device sessions every device ships its own shard's active
partitions over the shared host PCIe; the redundancy weakness is
unchanged — sharding splits the partitions, not the redundant bytes
inside them.  The whole-partition copies *are* shareable: a partition
shipped for one query is on the device for every other query planning in
the same transfer window (a batch super-iteration;
:meth:`~repro.runtime.context.ExecutionContext.begin_window`).

Because every transfer is a whole partition, this system benefits most
directly from the adaptive device-memory cache (:mod:`repro.cache`):
under ``lru`` / ``frontier-aware`` policies a shipped partition stays
resident until evicted, and later iterations (or later super-iterations
of a batch) read it for free.  The default ``static-prefix`` policy
leaves the historical ship-every-iteration behaviour untouched: this
baseline ignores the static shard pin by design and bills through the
bare window dedup unless the policy is adaptive.
"""

from __future__ import annotations

import numpy as np

from repro.metrics.results import IterationStats
from repro.runtime.driver import IterationPlan, QuerySession
from repro.sim.streams import StreamTask
from repro.systems.base import GraphSystem
from repro.transfer.base import EngineKind
from repro.transfer.explicit_filter import ExplicitFilterEngine

__all__ = ["ExpTMFilterSystem"]


class ExpTMFilterSystem(GraphSystem):
    """Filter-based explicit transfer management (GraphReduce/GTS/Graphie style)."""

    name = "ExpTM-F"
    supports_multi_device = True

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.engine = ExplicitFilterEngine(self.graph, self.config)

    def plan_iteration(self, session: QuerySession) -> IterationPlan:
        pending = session.pending
        frontier = self.driver.snapshot(pending)
        active_ids = frontier.active_ids
        # Partitions hold consecutive vertex ranges and active_ids is
        # sorted, so one bisection splits the frontier per partition.
        boundaries = np.append(self.partitioning.vertex_starts, self.graph.num_vertices)
        cuts = np.searchsorted(active_ids, boundaries)

        context = self.context
        cache = context.cache
        adaptive = cache is not None and cache.adaptive
        claim = context.claim if adaptive else context.claim_unshipped
        if adaptive and active_ids.size:
            # Feed the eviction policy this iteration's per-partition
            # active-edge counts (committed at the next boundary).
            degrees = self.graph.out_degrees[active_ids]
            partition_of = self.partitioning.partition_of_vertices(active_ids)
            cache.observe_frontier(
                np.bincount(
                    partition_of, weights=degrees, minlength=self.partitioning.num_partitions
                ).astype(np.int64)
            )

        device_tasks: list[list[StreamTask]] = context.empty_device_lists()
        transfer_bytes = 0
        active_partition_count = 0
        task_count = 0
        for partition in self.partitioning:
            in_partition = active_ids[cuts[partition.index] : cuts[partition.index + 1]]
            if in_partition.size == 0:
                continue
            device = self.sharding.device_of_partition(partition.index)
            active_partition_count += 1
            task_count += 1
            kernel_time = self.kernel_model.kernel_time(self._active_edge_count(in_partition))
            if not claim([partition.index]):
                # Cache-resident, or another query already shipped it
                # this transfer window; only the kernel runs.
                transfer_time = 0.0
            else:
                outcome = self.engine.transfer(partition, in_partition)
                transfer_bytes += outcome.bytes_transferred
                transfer_time = outcome.transfer_time
            device_tasks[device].append(
                StreamTask(
                    name="P%d-d%d" % (partition.index, device),
                    engine=EngineKind.EXP_FILTER.value,
                    transfer_time=transfer_time,
                    kernel_time=kernel_time,
                    overlapped_transfer=False,
                )
            )

        # Synchronous processing: every active vertex pushes once.
        pending[active_ids] = False
        remote_updates = [0] * context.num_devices
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
            engine_partitions={EngineKind.EXP_FILTER.value: active_partition_count},
            engine_tasks={EngineKind.EXP_FILTER.value: task_count},
        )
        return IterationPlan(stats=stats, device_tasks=device_tasks, remote_updates=remote_updates)
