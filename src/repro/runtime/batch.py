"""Concurrent multi-query serving on one warmed execution session.

A production deployment of a transfer-centric graph system rarely runs
one traversal at a time: it serves a *workload* of queries (many SSSP or
BFS sources, PHP targets, ...) against the same graph.  The transfer
argument of the paper then extends from one traversal to the workload:
the expensive part — moving edge partitions across PCIe, warming shard
residency — is per *graph*, not per *query*, so concurrent queries should
share it.

:class:`QueryBatchRunner` executes K queries on one system session:

* one :class:`~repro.runtime.context.ExecutionContext` — partitioning,
  shards and (on multi-device sessions) shard residency are built and
  warmed **once** for the whole batch, so the first-touch residency
  copies that a sequential K-run workload pays K times are paid once;
* per super-iteration, every live query contributes one
  :class:`~repro.runtime.driver.IterationPlan` inside one transfer window
  (:meth:`~repro.runtime.context.ExecutionContext.begin_window`), so
  filter-style whole-partition transfers are deduplicated across queries
  (a partition shipped for one query this super-iteration is on the
  device for all of them; :attr:`BatchResult.amortized_bytes`);
* the merged per-device task lists are co-scheduled on the shared
  streams/PCIe, so one query's kernels overlap another's transfers; the
  batch makespan is the sum of the merged schedules.

Query *semantics* are untouched: every query keeps its own program
state and frontier, so the per-query values are bitwise identical to K
independent runs (asserted in ``tests/test_batch.py``); sharing only
affects simulated time and transfer volume.

**Priority scheduling.**  ``run(queries, priorities=...)`` turns the
runner into the multi-tenant scheduler behind
:class:`~repro.service.GraphService`: queries plan in ascending priority
rank (lower = more urgent) and the merged per-device task lists are
ordered in *strict class order* — every stream task of a higher class is
scheduled before any task of a lower class (within a class, submission
order is preserved), so a heavy analytical query cannot starve cheap
point lookups.  With ``priorities=None`` (or all-equal ranks) the merge
reduces bitwise to the historical FIFO co-schedule.

**Per-query service latency.**  The runner reports one latency per query
(:attr:`BatchResult.latencies`): within a super-iteration a query is
finished when *its own* tasks complete in the merged timeline — iteration
``i+1`` of a query depends only on its own iteration ``i``, so work of
lower-priority peers scheduled behind it does not block it — and its
clock accumulates those completion times plus its own planning
overheads.  The batch :attr:`BatchResult.makespan` stays the full
barriered co-schedule, so throughput accounting is unchanged; latencies
are what the serving layer's priority/SLA machinery consumes.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.algorithms.base import VertexProgram
from repro.metrics.results import BatchResult
from repro.runtime.driver import QuerySession

__all__ = ["QueryBatchRunner"]

#: Offset between consecutive priority classes in the merged schedule.
#: Within-plan task priorities are small (contribution ranks are tens,
#: multi-device order indices are bounded by the partition count), so the
#: stride makes class order strict while preserving each plan's internal
#: priority order.
PRIORITY_STRIDE = 1e6


class QueryBatchRunner:
    """Runs K queries concurrently on one system session.

    Parameters
    ----------
    system:
        A :class:`~repro.systems.base.GraphSystem` (or the HyTGraph
        system wrapping its engine) already bound to a graph and
        hardware config.  Any system that runs on the unified runtime
        can serve batches; transfer amortization kicks in where the
        system's transfer pattern allows it (whole-partition filter
        transfers, shard residency), co-scheduling overlap everywhere.
    max_iterations:
        Per-query outer-iteration bound (defaults to the system's).
    """

    def __init__(self, system, max_iterations: int | None = None):
        self.system = system
        self.max_iterations = (
            max_iterations if max_iterations is not None else system.max_iterations
        )

    def run(
        self,
        queries: Sequence[tuple[VertexProgram, int | None]],
        priorities: Sequence[float] | None = None,
        injector=None,
        deadlines: Sequence[float | None] | None = None,
        checkpoint_interval: int = 1,
        preemptible: Sequence[bool] | None = None,
        should_preempt: Callable[[float], bool] | None = None,
        resume: Sequence[object | None] | None = None,
        trace_base: float = 0.0,
        trace_tracks: Sequence[str | None] | None = None,
    ) -> BatchResult:
        """Execute ``queries`` (program, source) pairs as one batch.

        ``priorities`` (one rank per query, lower = more urgent) turns on
        priority scheduling: queries plan in rank order and every merged
        stream task of a higher class is scheduled before any task of a
        lower class.  ``None`` — or all-equal ranks — reproduces the
        historical FIFO co-schedule bitwise.

        ``injector`` (a :class:`~repro.faults.injector.FaultInjector`)
        turns on fault injection and checkpoint/recovery: query state is
        checkpointed every ``checkpoint_interval`` super-iterations
        (checkpoint copies billed into the timeline), device losses roll
        every live query back to its last checkpoint and re-execute
        (bitwise-identical values — semantics are device-agnostic),
        transient transfer faults retry with their backoff billed into
        the co-schedule, and a transfer that exhausts its retry policy
        fails the owning query terminally (``fault_status`` /
        ``fault_cause`` / ``fault_attempts`` in its result extras).

        ``deadlines`` (one per query, ``None`` = no deadline, seconds of
        accumulated service latency) cancels queries whose clock exceeds
        their deadline at a super-iteration boundary.

        ``preemptible`` + ``should_preempt`` make the batch *yield*: at
        every super-iteration boundary ``should_preempt`` is consulted
        with the batch's elapsed makespan, and when it returns True every
        still-live preemptible query is suspended — its state captured as
        a :class:`~repro.faults.checkpoint.QueryCheckpoint` (the
        device-to-host copy billed) and handed back through
        ``extra["suspended"]`` — while non-preemptible queries run on to
        completion.  A suspended query's result carries
        ``extra["preempted"] = True`` and no values.  ``resume`` (one
        checkpoint or ``None`` per query) restores a previously
        suspended query's state before the first super-iteration, billing
        the host-to-device copy; re-executed values stay bitwise equal to
        an uninterrupted run because the vertex-program semantics never
        depended on where the boundary fell.

        ``trace_base``/``trace_tracks`` drive span emission when the
        context carries a recording tracer (see :mod:`repro.obs`).
        ``trace_base`` is the simulated service time this batch starts at
        (the wave start); ``trace_tracks`` names each query's trace lane
        (``None`` entries stay untraced — how replay sampling bounds
        10^5-query traces; omitted entirely, every query gets a
        ``query:q<i>`` lane).  Each traced query's lane is tiled with
        non-overlapping spans — restore/exec/checkpoint/capture — whose
        durations sum exactly to its :attr:`BatchResult.latencies` entry;
        device lanes replay the merged co-schedule.  Tracing emits spans
        only: every number the batch computes is bitwise unchanged.
        """
        if not queries:
            raise ValueError("a batch needs at least one query")
        system = self.system
        context = system.context
        driver = system.driver
        tracer = context.tracer
        for what, per_query in (
            ("priorities", priorities),
            ("deadlines", deadlines),
            ("preemptible flags", preemptible),
            ("resume checkpoints", resume),
            ("trace tracks", trace_tracks if tracer.enabled else None),
        ):
            if per_query is not None and len(per_query) != len(queries):
                raise ValueError(
                    "got %d %s for %d queries" % (len(per_query), what, len(queries))
                )
        if checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be at least 1")

        # Warm state (residency first-touch flags, page caches) is shared
        # by the whole batch: reset once here, NOT between queries.
        system.reset_run_state()
        sessions: list[QuerySession] = [
            system.start_session(program, source) for program, source in queries
        ]
        # Dense class offsets: arbitrary rank values (enum members, raw
        # floats) map onto consecutive stride multiples; rank 0 offset is
        # exactly 0.0 so an all-equal batch leaves task priorities
        # untouched.
        if priorities is None:
            offsets = [0.0] * len(sessions)
            order_key = lambda index: index  # noqa: E731 - submission order
        else:
            ranks = [float(rank) for rank in priorities]
            dense = {rank: position for position, rank in enumerate(sorted(set(ranks)))}
            offsets = [dense[rank] * PRIORITY_STRIDE for rank in ranks]
            order_key = lambda index: (ranks[index], index)  # noqa: E731
        cache = context.cache
        cache_before = cache.snapshot_counters() if cache is not None else None

        tracks: list[str | None] | None = None
        if tracer.enabled:
            if trace_tracks is None:
                tracks = ["query:q%d" % index for index in range(len(sessions))]
            else:
                tracks = list(trace_tracks)
            # Event sources route through the same tracer for the run.
            if cache is not None:
                cache.tracer = tracer
            if injector is not None:
                injector.tracer = tracer
                injector.trace_tracks = tracks
        tracing = tracks is not None

        makespan = 0.0
        super_iterations = 0
        clocks = [0.0] * len(sessions)
        #: query index -> terminal fault record ("failed"/"cancelled").
        terminal: dict[int, dict] = {}
        #: query index -> suspension checkpoint (preempted this batch).
        suspended: dict[int, object] = {}
        #: Billed checkpoint-copy seconds per phase (the span names).
        copy_s = dict.fromkeys(
            ("resume-restore", "preempt-capture", "recovery-restore", "checkpoint"), 0.0
        )

        def bill_copy(phase: str, index: int, checkpoint, cost: float) -> float | None:
            """Bill one checkpoint copy to its phase, its query and the batch.

            Emits the span and returns its end time if the query is traced.
            """
            nonlocal makespan
            end = None
            if tracing and tracks[index] is not None:
                start = trace_base + clocks[index]
                end = start + cost
                tracer.span(
                    "checkpoint", phase, tracks[index], start, end,
                    checkpoint_bytes=checkpoint.checkpoint_bytes,
                )
            copy_s[phase] += cost
            clocks[index] += cost
            makespan += cost
            return end

        if resume is not None:
            # Resumed queries pick up where their suspension checkpoint
            # left off; the host-to-device state copy is billed up front.
            for index, checkpoint in enumerate(resume):
                if checkpoint is not None:
                    bill_copy(
                        "resume-restore", index, checkpoint,
                        driver.restore_checkpoint(sessions[index], checkpoint),
                    )
        checkpoints: list = [None] * len(sessions)
        recovered_supers = 0
        if injector is not None:
            faults_before = injector.faults_injected
            retries_before = injector.retries
            retry_time_before = injector.retry_time_s
            # Submit-time checkpoints are free: the query state still
            # lives host-side, nothing has to cross PCIe to save it.
            checkpoints = [driver.capture_checkpoint(session) for session in sessions]
        while True:
            live = [
                index
                for index, session in enumerate(sessions)
                if index not in terminal
                and index not in suspended
                and session.live
                and session.iteration < self.max_iterations
            ]
            if not live:
                break
            if (
                should_preempt is not None
                and preemptible is not None
                and any(preemptible[index] for index in live)
                and should_preempt(makespan)
            ):
                # Yield at the boundary: suspend every live preemptible
                # query (checkpoint copy billed); the rest of the batch
                # runs on without them.
                for index in live:
                    if not preemptible[index]:
                        continue
                    checkpoint = driver.capture_checkpoint(sessions[index])
                    end = bill_copy(
                        "preempt-capture", index, checkpoint,
                        checkpoint.transfer_seconds(context.config),
                    )
                    if end is not None:
                        tracer.instant("query", "preempted", track=tracks[index], t=end)
                    suspended[index] = checkpoint
                live = [index for index in live if index not in suspended]
                if not live:
                    break
            live.sort(key=order_key)
            if tracing:
                # Fault/cache instants default to the simulated batch clock.
                tracer.set_clock(trace_base + makespan)
            if injector is not None:
                lost = injector.begin_super_iteration(context)
                if lost:
                    # Rollback/re-execution recovery: every live query
                    # returns to its last checkpoint (restore copies
                    # billed), then replays the lost super-iterations on
                    # the re-sharded survivors (or the host).  Values
                    # stay bitwise identical — semantics never depended
                    # on the device count.
                    for index in live:
                        checkpoint = checkpoints[index]
                        recovered_supers += max(
                            0, sessions[index].iteration - checkpoint.iteration
                        )
                        bill_copy(
                            "recovery-restore", index, checkpoint,
                            driver.restore_checkpoint(sessions[index], checkpoint),
                        )
                    if tracing:
                        tracer.set_clock(trace_base + makespan)
            # One transfer window per super-iteration: a partition any
            # query ships is on the device for its peers, and the cache
            # rescores and evicts once per boundary, over the union of
            # every live query's frontier.
            context.begin_window()

            # Plan every live query's iteration (mutates its state and the
            # shared warm-transfer bookkeeping, in deterministic query
            # order: priority rank first, then submission).  When the
            # cache enforces per-class budgets, each query's fills are
            # tagged with its priority rank so BULK scans cannot displace
            # the interactive working set.
            classed_cache = (
                cache is not None and cache.class_budgets and priorities is not None
            )
            plans = []
            for index in live:
                if classed_cache:
                    cache.set_fill_class(ranks[index])
                plans.append((index, driver.plan(system, sessions[index])))
            if classed_cache:
                cache.set_fill_class(None)

            # The merged co-schedule refers to the plans' own tasks: each
            # device list has a parallel owner list, and the owner's class
            # offset is applied when the tasks are ordered.
            merged_tasks = context.empty_device_lists()
            merged_owners = context.empty_device_lists()
            merged_sync = [0] * context.num_devices
            overhead = 0.0
            for index, plan in plans:
                session = sessions[index]
                sync_bytes = context.sync_bytes(plan.remote_updates)
                for device, tasks in enumerate(plan.device_tasks):
                    merged_tasks[device].extend(tasks)
                    merged_owners[device].extend([index] * len(tasks))
                    merged_sync[device] += sync_bytes[device]
                overhead += plan.overhead_time
                # Per-query statistics: the query's own tasks scheduled
                # alone (its standalone cost given the shared warm state).
                # This must precede the fault injector below, which folds
                # retries into the very same task objects.
                session.result.iterations.append(driver.finish(plan))
                session.iteration += 1

            if injector is not None:
                # Transient transfer faults: retries and backoff are
                # folded into the merged tasks' transfer times before
                # scheduling; exhausted retry policies fail the owning
                # query terminally.
                for query_index, attempts in injector.perturb_transfers(
                    merged_tasks, merged_owners
                ).items():
                    terminal.setdefault(
                        query_index,
                        {
                            "status": "failed",
                            "cause": "transfer fault persisted through %d attempts"
                            % attempts,
                            "attempts": attempts,
                        },
                    )

            # Batch wall-clock: all live queries' tasks co-scheduled on the
            # shared devices, one boundary exchange for their merged deltas.
            timeline = context.schedule(merged_tasks, merged_sync, merged_owners, offsets)
            finish_times = timeline.owner_finish
            scale = context.time_scale
            if tracing:
                super_start = trace_base + makespan
                busy = self._emit_device_spans(tracer, tracks, timeline, super_start, scale)
                for index, plan in plans:
                    track = tracks[index]
                    if track is None:
                        continue
                    start = trace_base + clocks[index]
                    delta = finish_times[index] * scale + plan.overhead_time
                    stats = plan.stats
                    per_query = busy.get(index, {})
                    tracer.span(
                        "iteration", "iter%d" % (sessions[index].iteration - 1),
                        track, start, start + delta,
                        super=super_iterations,
                        active_vertices=stats.active_vertices,
                        active_edges=stats.active_edges,
                        cache_hit_bytes=stats.cache_hit_bytes,
                        cache_miss_bytes=stats.cache_miss_bytes,
                        kernel_s=per_query.get("gpu", 0.0),
                        transfer_s=per_query.get("pcie", 0.0),
                        cpu_s=per_query.get("cpu", 0.0),
                    )
            for index, plan in plans:
                clocks[index] += finish_times[index] * scale + plan.overhead_time
            makespan += timeline.makespan * scale + overhead
            super_iterations += 1
            if tracing:
                tracer.span(
                    "super", "super%d" % (super_iterations - 1), "service",
                    super_start, trace_base + makespan, queries=len(plans),
                )

            if deadlines is not None:
                for index in live:
                    deadline = deadlines[index]
                    if index in terminal or deadline is None:
                        continue
                    if clocks[index] > deadline:
                        terminal[index] = {
                            "status": "cancelled",
                            "cause": "deadline %.6f s exceeded at %.6f s"
                            % (deadline, clocks[index]),
                            "attempts": 0,
                        }
            if injector is not None and super_iterations % checkpoint_interval == 0:
                # Boundary checkpoints: still-running queries snapshot
                # their state; the device-to-host copy is billed.
                for index in live:
                    session = sessions[index]
                    if index in terminal or not session.live:
                        continue
                    checkpoint = driver.capture_checkpoint(session)
                    checkpoints[index] = checkpoint
                    bill_copy(
                        "checkpoint", index, checkpoint,
                        checkpoint.transfer_seconds(context.config),
                    )

        results = []
        for index, session in enumerate(sessions):
            if index in terminal:
                record = terminal[index]
                result = session.result
                result.converged = False
                result.values = None
                result.extra["fault_status"] = record["status"]
                result.extra["fault_cause"] = record["cause"]
                result.extra["fault_attempts"] = record["attempts"]
                results.append(result)
            elif index in suspended:
                # Suspended mid-run: no values yet — the caller resumes
                # the query from its checkpoint in a later batch.
                result = session.result
                result.converged = False
                result.values = None
                result.extra["preempted"] = True
                results.append(result)
            else:
                results.append(system.finish_session(session))
        for index, result in enumerate(results):
            result.extra["batch_latency_s"] = clocks[index]
            if priorities is not None:
                result.extra["priority"] = priorities[index]
        first = results[0]
        cache_totals = (
            cache.delta(cache_before) if cache is not None else dict.fromkeys(
                ("hit_bytes", "miss_bytes", "evicted_bytes"), 0
            )
        )
        fault_kwargs: dict = {}
        if injector is not None:
            fault_kwargs = {
                "faults_injected": injector.faults_injected - faults_before,
                "retries": injector.retries - retries_before,
                "retry_time_s": injector.retry_time_s - retry_time_before,
                "checkpoint_time_s": copy_s["checkpoint"],
                "recovery_time_s": copy_s["recovery-restore"],
                "recovered_super_iterations": recovered_supers,
            }
        return BatchResult(
            system=first.system,
            algorithm=first.algorithm,
            graph_name=first.graph_name,
            results=results,
            makespan=makespan,
            super_iterations=super_iterations,
            amortized_bytes=context.amortized_bytes,
            cache_hit_bytes=cache_totals["hit_bytes"],
            cache_miss_bytes=cache_totals["miss_bytes"],
            cache_evicted_bytes=cache_totals["evicted_bytes"],
            latencies=clocks,
            extra={
                "backend": context.backend_name,
                "num_devices": context.num_devices,
                "resident_partitions": context.num_resident_partitions,
                "cache_policy": context.cache_policy,
                "scheduling": "fifo" if priorities is None else "priority",
                **(
                    {
                        "suspended": suspended,
                        "preempt_capture_s": copy_s["preempt-capture"],
                    }
                    if suspended
                    else {}
                ),
                **({"resume_restore_s": copy_s["resume-restore"]} if copy_s["resume-restore"] else {}),
                **(
                    {
                        "fault_events": list(injector.events),
                        "lost_devices": list(context.lost_devices),
                        "host_fallback": context.host_fallback,
                    }
                    if injector is not None
                    else {}
                ),
            },
            **fault_kwargs,
        )

    # ------------------------------------------------------------------
    # Merged-schedule helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _emit_device_spans(tracer, tracks, timeline, start_s: float, scale: float):
        """Replay one merged co-schedule onto the device trace lanes.

        Emits one span per task stage — ``dev<d>:<resource>`` lanes for
        device-owned stages, the bare resource lane for collective
        (boundary-sync) entries — skipping stages owned by untraced
        queries.  Owned stages are named ``q<owner>|<task>``.  Returns
        ``{query: {resource: busy_s}}``, the per-query occupancy split
        the exec tiles annotate.
        """
        busy: dict[int, dict[str, float]] = {}
        for entry in timeline.entries:
            owner = entry.owner
            name, resources = entry.name, None
            if owner >= 0:
                resources = busy.setdefault(owner, {})
                name = None if tracks[owner] is None else "q%d|%s" % (owner, name)
            lane = "dev%d:" % entry.device if entry.device >= 0 else ""
            for resource, start, end in entry.spans:
                if resources is not None:
                    resources[resource] = resources.get(resource, 0.0) + (end - start) * scale
                if name is not None:
                    tracer.span(
                        "device", name, lane + resource,
                        start_s + start * scale, start_s + end * scale,
                        engine=entry.engine, stream=entry.stream,
                    )
        return busy
