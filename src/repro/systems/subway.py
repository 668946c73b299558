"""Subway-style ExpTM-compaction system (EuroSys 2020).

Subway minimises transferred bytes by building, every iteration, a fresh
*subgraph of the active vertices*: the CPU packs their adjacency lists
(plus a new index array) into contiguous memory and ships it with one
explicit copy.  The GPU then processes the loaded subgraph **multiple
times** (asynchronous multi-round processing) to squeeze every update out
of the transferred data before the next, expensive, compaction round.

The multi-round behaviour is what Table VI dissects: it pays off for
accumulative algorithms such as PageRank (extra local rounds still push
useful residual mass, so fewer outer iterations and transfers) but causes
stale computation for value-replacement algorithms such as SSSP (local
updates get overwritten by better values arriving later, so Subway can
move *more* data than EMOGI).

On multi-device sessions the host CPU compacts every device's owned
frontier — the compactions serialise on the shared CPU resource, the
copies on the shared host PCIe — then each device runs its multi-round
asynchronous processing over its own loaded subgraph, and the iteration
ends with the boundary-delta exchange.  Compacted subgraphs are
query-specific (they pack exactly the query's active adjacency lists),
so batches gain co-scheduling overlap but no transfer dedup — and for
the same reason the device-memory cache subsystem (:mod:`repro.cache`)
has nothing to keep for Subway: a compacted subgraph is useless to any
other iteration or query, so its ``cache_hit_bytes`` stay zero under
every policy.
"""

from __future__ import annotations

import numpy as np

from repro.metrics.results import IterationStats
from repro.runtime.driver import IterationPlan, QuerySession
from repro.sim.streams import StreamTask
from repro.systems.base import GraphSystem
from repro.transfer.base import EngineKind
from repro.transfer.explicit_compaction import ExplicitCompactionEngine

__all__ = ["SubwaySystem"]

# Safety cap on local (no-transfer) rounds per outer iteration; Subway's
# own async mode bounds the local work similarly.
MAX_LOCAL_ROUNDS = 32


class SubwaySystem(GraphSystem):
    """Global CPU compaction plus multi-round asynchronous processing."""

    name = "Subway"
    supports_multi_device = True

    def __init__(self, *args, async_rounds: int = MAX_LOCAL_ROUNDS, **kwargs):
        super().__init__(*args, **kwargs)
        if async_rounds < 0:
            raise ValueError("async_rounds must be non-negative")
        self.async_rounds = async_rounds
        self.engine = ExplicitCompactionEngine(self.graph, self.config)

    def plan_iteration(self, session: QuerySession) -> IterationPlan:
        program, state, pending = session.program, session.state, session.pending
        sharding = self.sharding
        frontier = self.driver.snapshot(pending)
        active_ids = frontier.active_ids

        # One compaction per device covering the frontier it owns; the
        # whole-graph "partition" is irrelevant to the engine's math.
        outcomes = []
        transfer_bytes = 0
        for device_active in frontier.per_device:
            if device_active.size == 0:
                outcomes.append(None)
                continue
            outcome = self.engine.transfer(self.partitioning[0], device_active)
            outcomes.append(outcome)
            transfer_bytes += outcome.bytes_transferred

        # First round: every device processes the frontier it owns.
        pending[active_ids] = False
        loaded = np.zeros(self.graph.num_vertices, dtype=bool)
        loaded[active_ids] = True
        processed_per_device = [self._active_edge_count(d) for d in frontier.per_device]
        remote_updates = [0] * self.context.num_devices
        self.driver.process_per_device(program, state, pending, frontier.per_device, remote_updates)

        # Multi-round async: each device keeps draining activations whose
        # edges sit in its own loaded subgraph.  The round's local
        # frontier is scanned once and sliced per shard; a device sees
        # activations produced by the other devices only from the next
        # round on (per-round bulk-synchronous view).
        for _ in range(self.async_rounds):
            local_frontier = np.nonzero(pending & loaded)[0]
            if local_frontier.size == 0:
                break
            for device, local in enumerate(sharding.split_sorted_vertices(local_frontier)):
                if local.size == 0:
                    continue
                pending[local] = False
                processed_per_device[device] += self._active_edge_count(local)
                newly_active = program.process(self.graph, state, local)
                if newly_active.size:
                    pending[newly_active] = True
                    remote_updates[device] += self.context.count_remote(newly_active, device)

        device_tasks: list[list[StreamTask]] = self.context.empty_device_lists()
        active_devices = 0
        for device, outcome in enumerate(outcomes):
            if outcome is None:
                continue
            active_devices += 1
            device_tasks[device].append(
                StreamTask(
                    name="compacted-subgraph-d%d" % device,
                    engine=EngineKind.EXP_COMPACTION.value,
                    cpu_time=outcome.cpu_time,
                    transfer_time=outcome.transfer_time,
                    kernel_time=self.kernel_model.kernel_time(processed_per_device[device]),
                    overlapped_transfer=False,
                )
            )

        stats = IterationStats(
            index=session.iteration,
            time=0.0,
            active_vertices=frontier.active_vertices,
            active_edges=frontier.active_edges,
            transfer_bytes=transfer_bytes,
            processed_edges=int(sum(processed_per_device)),
            engine_partitions={EngineKind.EXP_COMPACTION.value: active_devices},
            engine_tasks={EngineKind.EXP_COMPACTION.value: active_devices},
        )
        return IterationPlan(stats=stats, device_tasks=device_tasks, remote_updates=remote_updates)
