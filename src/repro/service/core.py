"""The :class:`GraphService` facade: one warmed session serving typed queries.

A service owns exactly one system instance — hence one warmed
:class:`~repro.runtime.context.ExecutionContext` (partitioning, shards,
schedulers) and one device-memory cache — per (graph, config), and every
query submitted to it executes on that session.  Requests flow::

    QueryRequest ── submit() ──▶ admission control ──▶ QUEUED ─┐
                         │                                     │ drain()
                         └──────────▶ REJECTED                 ▼
                                                    priority-scheduled wave
                                                     (QueryBatchRunner)
                                                               │
    result() ◀─────────────── DONE ◀───────────────────────────┘

``drain`` serves the queue in *waves*: the admission controller splits
off as many queued requests as fit its byte budget, the batch runner
co-schedules them with merged task lists ordered by priority class, and
each completed request records its simulated latency (queue wait plus
execution) and SLA outcome.  Submitting is cheap and never executes;
polling a handle never executes; ``drain`` (or ``handle.result()``) does
the work.

Per-query *values* are bitwise identical to standalone ``system.run``
calls — the scheduler shares transfer state, never semantics (asserted
across the full algorithm × system grid in ``tests/test_service.py``).
"""

from __future__ import annotations

from typing import Sequence

from repro.algorithms import make_algorithm
from repro.algorithms.base import VertexProgram
from repro.faults import CircuitBreaker, FaultInjector
from repro.metrics.results import BatchResult, RunResult
from repro.obs import MetricsRegistry, make_tracer, write_chrome_trace
from repro.runtime.batch import QueryBatchRunner
from repro.service.admission import AdmissionController
from repro.service.config import ServiceConfig
from repro.service.request import (
    Priority,
    QueryHandle,
    QueryRequest,
    RequestStatus,
)
from repro.service.stats import ServiceStats, register_service_metrics
from repro.systems import make_system

__all__ = ["GraphService"]

#: ``BatchResult`` totals each served wave adds to the same-named
#: :class:`ServiceStats` fields.
_BATCH_TOTALS = (
    "total_transfer_bytes", "amortized_bytes", "super_iterations",
    "faults_injected", "retries", "retry_time_s", "checkpoint_time_s",
    "recovery_time_s",
)


class GraphService:
    """Session-oriented serving API over one (graph, config) pair.

    Parameters
    ----------
    config:
        The :class:`ServiceConfig` describing platform and serving
        policies (defaults throughout when omitted).  The service builds
        its system from it: ``config.system`` with the config's cache,
        backend and iteration knobs.
    graph / hardware:
        Optional prebuilt graph and
        :class:`~repro.sim.config.HardwareConfig` to build that system
        over (a benchmark workload's ``graph``/``config``).  Without a
        graph the config's dataset stand-in is loaded weighted so every
        algorithm can run against it — except CC, whose weakly-connected
        semantics need a symmetrized graph (submit a CC request only to
        a service built over one; a directed graph is refused at
        submit).
    system:
        A prebuilt :class:`~repro.systems.base.GraphSystem` to serve on
        instead (tests substitute instrumented systems through it); the
        config's system/platform/cache knobs are then not consulted.
    """

    def __init__(self, config: ServiceConfig | None = None, *, system=None, graph=None, hardware=None):
        self.config = config or ServiceConfig()
        if self.config.faults is not None and self.config.faults.host_loss_specs():
            raise ValueError(
                "host-loss faults need the cluster tier: a single-host service "
                "cannot lose a host; serve through ClusterService (--hosts N on "
                "the command line)"
            )
        if system is None:
            system = self._build_system(self.config, graph, hardware)
        self.system = system
        self.runner = QueryBatchRunner(system)
        self.admission = AdmissionController(
            system,
            budget_bytes=self.config.admission_budget_bytes,
            policy=self.config.admission_policy,
        )
        #: Admitted, not yet terminal (queued or suspended) handles.
        self._queue: list[QueryHandle] = []
        #: Terminal handles not yet harvested — appended wherever a
        #: handle's outcome is recorded, so :meth:`harvest` never scans.
        self._finished: list[QueryHandle] = []
        self._batches: list[BatchResult] = []
        self._next_request_id = 0
        #: The one cumulative stats record (wave counter included), bumped
        #: at the state transitions below; :meth:`stats` snapshots it.
        self._stats = ServiceStats()
        #: Simulated clock: accumulated makespan of the served waves
        #: (plus idle jumps to the next arrival under event-driven
        #: serving).
        self._clock_s = 0.0
        if self.config.cache_class_budgets:
            cache = self.system.context.cache
            if cache is not None:
                cache.set_class_budgets(
                    {
                        float(int(rank)): cap
                        for rank, cap in self.config.cache_class_budgets.items()
                    }
                )
        #: Sheds queued BULK work after repeated faulty waves.
        self.breaker = CircuitBreaker(
            threshold=self.config.breaker_threshold,
            cooldown=self.config.breaker_cooldown,
        )
        #: One injector for the service lifetime (``@k`` fault offsets
        #: count super-iterations across all waves); ``None`` fault-free.
        self._injector = (
            FaultInjector(self.config.faults, retry=self.config.retry)
            if self.config.faults is not None
            else None
        )
        #: Span tracer (:mod:`repro.obs`): the shared no-op unless
        #: ``config.tracing`` asks for recording.  Installed on the
        #: execution context so the runtime layers see the same sink.
        self.tracer = make_tracer(self.config.tracing)
        if self.tracer.enabled:
            self.system.context.tracer = self.tracer
        #: Lazily computed: whether the service graph is symmetric
        #: (gates programs with ``needs_symmetric``, e.g. CC).
        self._graph_symmetric: bool | None = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _build_system(config: ServiceConfig, graph, hardware):
        from repro.bench.workloads import build_workload, scaled_config_for
        from repro.sim.config import GPU_PRESETS, gtx_2080ti

        if graph is None:
            # The SSSP cell loads the dataset weighted, so one graph
            # serves every algorithm except CC (gated at submit: its
            # weakly-connected semantics need a symmetrized graph).
            workload = build_workload(
                config.dataset,
                "sssp",
                scale=config.scale,
                preset=config.gpu,
                num_devices=config.devices,
                interconnect=config.interconnect,
            )
            graph, hardware = workload.graph, workload.config
        elif hardware is None:
            preset = GPU_PRESETS[config.gpu] if config.gpu else None
            if config.devices != 1 or config.interconnect is not None:
                preset = (preset or gtx_2080ti()).with_devices(config.devices, config.interconnect)
            hardware = scaled_config_for(graph, None, preset)
        return make_system(config.system, graph, config=hardware, **config.system_kwargs())

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def graph(self):
        """The graph every query of this service runs against."""
        return self.system.graph

    @property
    def batches(self) -> list[BatchResult]:
        """The served waves' batch records, in serving order."""
        return list(self._batches)

    # ------------------------------------------------------------------
    # Lifecycle: submit -> poll -> drain -> result
    # ------------------------------------------------------------------
    def submit(self, request: QueryRequest) -> QueryHandle:
        """Validate, estimate and admit (or reject) one request.

        Never executes anything.  Invalid requests — unknown algorithm,
        a source on a sourceless program, a program the service's graph
        cannot run — raise immediately; admission refusals return a
        ``REJECTED`` handle instead (the request was well-formed, the
        service is protecting itself).
        """
        return self._submit_resolved(request, make_algorithm(request.algorithm.lower()))

    def _check_program(self, program: VertexProgram) -> None:
        """Reject programs this service's graph cannot serve.

        Shared with the cluster tier, which must validate *before*
        routing (an invalid request must raise identically no matter
        which replica it would have landed on).
        """
        program.check_graph(self.graph)
        if program.needs_symmetric and not self._symmetric_graph():
            # The evaluation grid symmetrizes the graph for CC (weakly
            # connected components); serving it on a directed graph would
            # silently return different labels than every other entry
            # point, so refuse instead.
            raise ValueError(
                "%s assumes a symmetric graph, but this service's graph is "
                "directed; build the service with graph.symmetrize()" % program.name
            )

    def _submit_resolved(self, request: QueryRequest, program: VertexProgram) -> QueryHandle:
        self._check_program(program)
        source = self._resolve_source(program, request.source)
        estimate = self.admission.estimate_request_bytes(program, source)
        handle = QueryHandle(
            request=request,
            request_id=self._next_request_id,
            estimated_bytes=estimate,
            _service=self,
            _query=(program, source),
        )
        self._next_request_id += 1
        self._stats.submitted += 1
        reason = self.admission.decide(estimate)
        if reason is not None:
            handle.status = RequestStatus.REJECTED
            handle.reject_reason = reason
            self._record(handle)
            if self.tracer.enabled and self.tracer.trace_query(handle.request_id):
                self.tracer.instant(
                    "query", "rejected", track=self._track_of(handle),
                    t=handle.arrival_s, reason=reason,
                )
        else:
            self._queue.append(handle)
        return handle

    def submit_many(self, requests: Sequence[QueryRequest]) -> list[QueryHandle]:
        """Submit several requests; one handle each, in order."""
        return [self.submit(request) for request in requests]

    def _symmetric_graph(self) -> bool:
        """Whether every edge has its reverse (computed once, cached)."""
        if self._graph_symmetric is None:
            import numpy as np
            from scipy.sparse import csr_matrix

            graph = self.graph
            adjacency = csr_matrix(
                (
                    np.ones(graph.num_edges, dtype=np.int64),
                    graph.column_index,
                    graph.row_offset,
                ),
                shape=(graph.num_vertices, graph.num_vertices),
            )
            self._graph_symmetric = (adjacency != adjacency.T).nnz == 0
        return self._graph_symmetric

    def _resolve_source(self, program: VertexProgram, source: int | None) -> int | None:
        if not program.needs_source:
            if source is not None:
                raise ValueError("algorithm %r takes no traversal source" % program.name)
            return None
        if source is None:
            from repro.bench.workloads import pick_source

            return pick_source(self.graph)
        return program.validate_source(self.graph, source)

    def drain(self) -> list[BatchResult]:
        """Serve every queued request; returns the waves' batch records.

        Each wave is one priority-scheduled batch on the warmed session:
        the admission controller splits off what fits its budget (in
        priority order under ``priority`` scheduling, submission order
        under ``fifo``), the batch runner co-schedules it, and each
        request's latency runs from its arrival timestamp to its
        completion in the service clock — queue wait included, which is
        what the deadline SLAs are checked against.

        With arrival-stamped requests the queue drains *event-driven*:
        a wave forms only over requests that have arrived by the
        current clock (the clock jumps forward over idle gaps), and —
        with :attr:`ServiceConfig.preemption` — a running BULK query
        yields at super-iteration boundaries to INTERACTIVE work that
        arrived mid-wave, resuming from its checkpoint in a later wave.
        With every arrival at t=0 and preemption off this reduces
        bitwise to the historical all-at-once wave behaviour.
        """
        served: list[BatchResult] = []
        while True:
            batch = self.step()
            if batch is None:
                return served
            served.append(batch)

    def step(self) -> BatchResult | None:
        """Form and serve the next scheduling wave (``None`` when idle).

        One wave: breaker shedding, arrival-gated wave formation,
        admission, execution (with preemption/resume when configured),
        then latency/SLA bookkeeping.  This is the granularity the
        replay harness pumps — it lets a caller interleave submissions
        with serving instead of draining to exhaustion.
        """
        if self.breaker.open:
            self._shed_bulk()
        if not self._queue:
            return None
        queue = self._queue
        ready = [handle.ready_s for handle in queue]
        # Idle period: jump the clock to the next arrival (or, for a
        # handle whose checkpoint is still in flight over the network, to
        # the moment the shipment lands).
        clock = self._clock_s = max(self._clock_s, min(ready))
        arrived = [handle for handle, ready_s in zip(queue, ready) if ready_s <= clock]
        prioritized = self.config.scheduling == "priority"
        if prioritized:
            arrived.sort(key=lambda handle: (handle.request.priority, handle.request_id))
        wave = self.admission.take_wave(arrived)
        taken = {id(handle) for handle in wave}
        self._queue = [handle for handle in queue if id(handle) not in taken]
        wave_start = self._clock_s
        stats = self._stats
        wave_index = stats.waves
        stats.waves += 1
        for handle in wave:
            handle.status = RequestStatus.RUNNING
            handle.wave = wave_index
            if handle.queue_wait_s is None:
                handle.queue_wait_s = wave_start - handle.arrival_s
        queries = [handle._query for handle in wave]
        priorities = (
            [int(handle.request.priority) for handle in wave] if prioritized else None
        )
        deadlines = self._wave_deadlines(wave)
        preempt_flags = None
        preempt_check = None
        if self.config.preemption:
            flags = [handle.request.priority is Priority.BULK for handle in wave]
            if any(flags):
                preempt_flags = flags
                preempt_check = self._preemption_check(wave_start)
        resume = [handle._checkpoint for handle in wave]
        if not any(checkpoint is not None for checkpoint in resume):
            resume = None
        tracks = self._trace_wave(wave, wave_start, wave_index)
        batch = self.runner.run(
            queries,
            priorities=priorities,
            injector=self._injector,
            deadlines=deadlines,
            checkpoint_interval=self.config.checkpoint_interval,
            preemptible=preempt_flags,
            should_preempt=preempt_check,
            resume=resume,
            trace_base=wave_start,
            trace_tracks=tracks,
        )
        if tracks is not None:
            self.tracer.span(
                "wave", "wave%d" % wave_index, "service",
                wave_start, wave_start + batch.makespan,
                queries=len(wave), super_iterations=batch.super_iterations,
            )
        suspended = batch.extra.get("suspended", {})
        completed = []
        for position, (handle, result, latency) in enumerate(
            zip(wave, batch.results, batch.latencies)
        ):
            if position in suspended:
                # Preempted: back into the queue with its checkpoint;
                # its admission reservation stays held — the query is
                # still in the system.
                handle._checkpoint = suspended[position]
                stats.preemptions += 1
                if not handle.preemptions:
                    stats.preempted_queries += 1
                handle.preemptions += 1
                handle.status = RequestStatus.QUEUED
                self._queue.append(handle)
                continue
            handle._checkpoint = None
            handle.latency_s = wave_start + latency - handle.arrival_s
            handle._result = result
            result.extra["service_latency_s"] = handle.latency_s
            fault_status = result.extra.get("fault_status")
            if fault_status == "failed":
                handle.status = RequestStatus.FAILED
                handle.fault_cause = result.extra.get("fault_cause")
                handle.attempts = int(result.extra.get("fault_attempts", 0))
            elif fault_status == "cancelled":
                handle.status = RequestStatus.CANCELLED
                handle.fault_cause = result.extra.get("fault_cause")
                handle.deadline_met = False
            else:
                handle.status = RequestStatus.DONE
                deadline = self._deadline_of(handle)
                if deadline is not None:
                    handle.deadline_met = handle.latency_s <= deadline
            if tracks is not None and tracks[position] is not None:
                self.tracer.instant(
                    "query", handle.status.name.lower(), track=tracks[position],
                    t=handle.arrival_s + handle.latency_s,
                    latency_s=handle.latency_s,
                    queue_wait_s=handle.queue_wait_s or 0.0,
                    preemptions=handle.preemptions, wave=wave_index,
                )
            self._record(handle)
            completed.append(handle)
        self._clock_s += batch.makespan
        self.admission.release(completed)
        self.breaker.record(batch.faults_injected)
        self._batches.append(batch)
        for name in _BATCH_TOTALS:
            setattr(stats, name, getattr(stats, name) + getattr(batch, name))
        return batch

    # ------------------------------------------------------------------
    # Tracing (see repro.obs)
    # ------------------------------------------------------------------
    @staticmethod
    def _track_of(handle: QueryHandle) -> str:
        """The query's trace lane (its label, or ``q<request_id>``)."""
        return "query:%s" % (handle.request.label or "q%d" % handle.request_id)

    def _trace_wave(self, wave, wave_start: float, wave_index: int):
        """Open the wave's query lanes; returns the per-query track list.

        For every *sampled* query the lane gets its wait tile — ``queued``
        from arrival (with an ``admitted`` instant) on the first wave,
        ``suspended`` from where the preemption capture ended on resume
        waves — closed exactly at ``wave_start``, so the lane's tiles keep
        summing to the handle's eventual service latency.  Returns
        ``None`` when tracing is off.
        """
        if not self.tracer.enabled:
            return None
        tracer = self.tracer
        tracer.set_clock(wave_start)
        tracks: list[str | None] = []
        for handle in wave:
            if not tracer.trace_query(handle.request_id):
                tracks.append(None)
                continue
            track = self._track_of(handle)
            tracks.append(track)
            if handle.preemptions:
                name = "suspended"
            else:
                name = "queued"
                tracer.instant(
                    "query", "admitted", track=track, t=handle.arrival_s,
                    request_id=handle.request_id,
                    algorithm=handle.request.algorithm,
                    priority=handle.request.priority.name.lower(),
                )
            start = tracer.cursor(track, handle.arrival_s)
            if wave_start > start:
                tracer.span("query", name, track, start, wave_start, wave=wave_index)
        return tracks

    def metrics(self) -> MetricsRegistry:
        """One registry over every live counter source of the service.

        An export view built on demand from the cumulative :meth:`stats`
        record, the device cache, the fault injector and the tracer —
        the snapshot is deterministic (sorted names, fixed histogram
        bounds), so CI can diff it across runs.
        """
        registry = MetricsRegistry()
        stats = self.stats()
        register_service_metrics(registry, stats)
        registry.count("batch.amortized_bytes", stats.amortized_bytes)
        registry.count("batch.super_iterations", stats.super_iterations)
        cache = self.system.context.cache
        if cache is not None:
            registry.merge_counters("cache", cache.counters())
            registry.count("cache.invalidated_bytes", cache.invalidated_bytes)
            registry.gauge("cache.resident_bytes", cache.resident_bytes)
            registry.gauge("cache.policy", cache.policy_name)
        if self._injector is not None:
            registry.count("faults.injected", self._injector.faults_injected)
            registry.count("faults.retries", self._injector.retries)
            registry.gauge("faults.retry_time_s", self._injector.retry_time_s)
        if self.tracer.enabled:
            registry.count("trace.spans", self.tracer.total_spans)
            registry.count("trace.dropped_spans", self.tracer.dropped_spans)
        return registry

    def observability(self) -> dict:
        """The full machine-readable picture: stats ∪ metrics ∪ health."""
        payload = self.stats().as_dict()
        payload["metrics"] = self.metrics().snapshot()
        payload["device_health"] = self.device_health()
        return payload

    def export_trace(self, path):
        """Write the recorded spans (+ metrics snapshot) as a Chrome trace.

        Requires ``config.tracing``; the file loads in Perfetto and
        feeds ``repro-graph inspect``.
        """
        if not self.tracer.enabled:
            raise ValueError(
                "this service does not trace; build it with ServiceConfig(tracing=True)"
            )
        return write_chrome_trace(
            path,
            self.tracer.spans(),
            metrics=self.metrics().snapshot(),
            dropped=self.tracer.dropped_spans,
        )

    def _preemption_check(self, wave_start: float):
        """Boundary predicate: has INTERACTIVE work arrived by now?

        Consulted by the batch runner at every super-iteration boundary
        with the wave's elapsed makespan; queued INTERACTIVE requests
        whose arrival timestamp has passed make the wave's BULK queries
        yield.  (An INTERACTIVE request already arrived at wave start is
        never still queued while BULK runs — it sorts ahead of every
        BULK request and the admission head always joins — so this only
        fires for genuinely new arrivals.)
        """

        def should_preempt(elapsed: float) -> bool:
            now = wave_start + elapsed
            return any(
                handle.request.priority is Priority.INTERACTIVE
                and handle.arrival_s <= now
                for handle in self._queue
            )

        return should_preempt

    def harvest(self) -> tuple[list[QueryHandle], list[BatchResult]]:
        """Detach finished handles and served batch records.

        Streaming replay over 10^5-10^6 queries cannot keep every handle
        (each DONE result holds per-vertex value arrays): calling this
        after each :meth:`step` hands the finished handles and batches to
        the caller and drops the service's references, keeping memory
        bounded by the in-flight queue.  Queued/running handles stay.
        :meth:`stats` and :meth:`metrics` are cumulative: they read the
        same before and after a harvest.
        """
        finished = sorted(self._finished, key=lambda handle: handle.request_id)
        self._finished = []
        batches = self._batches
        self._batches = []
        return finished, batches

    def _deadline_of(self, handle: QueryHandle) -> float | None:
        """The request's deadline, falling back to the config default."""
        if handle.request.deadline_s is not None:
            return handle.request.deadline_s
        return self.config.deadline_s

    def _wave_deadlines(self, wave: Sequence[QueryHandle]) -> list[float | None] | None:
        """Per-query in-wave latency budgets for runtime cancellation.

        A handle's deadline is measured on its service latency (queue
        wait included), so the budget handed to the runner is what
        remains after the clock already spent waiting.  ``None`` unless
        deadline enforcement is on and some handle carries a deadline.
        """
        if not self.config.enforce_deadlines:
            return None
        deadlines = [
            None
            if deadline is None
            else deadline - (self._clock_s - handle.arrival_s)
            for handle, deadline in (
                (handle, self._deadline_of(handle)) for handle in wave
            )
        ]
        if all(deadline is None for deadline in deadlines):
            return None
        return deadlines

    def _shed_bulk(self) -> None:
        """Fail queued BULK requests while the circuit breaker is open.

        Typed failure, never a silent drop: the handles move to FAILED
        with the breaker named as the cause, and their admission
        reservations are returned to the budget.
        """
        shed = [
            handle
            for handle in self._queue
            if handle.request.priority is Priority.BULK
        ]
        if not shed:
            return
        self._queue = [
            handle
            for handle in self._queue
            if handle.request.priority is not Priority.BULK
        ]
        for handle in shed:
            self._fail(
                handle,
                "circuit breaker open after %d consecutive faulty wave(s); "
                "BULK work shed" % self.breaker.threshold,
            )
        self.admission.release(shed)

    def _fail(self, handle: QueryHandle, cause: str) -> None:
        """Fail a queued handle outside a wave — typed and counted (breaker
        shed, last host lost); the caller returns the admission reservation."""
        handle.status = RequestStatus.FAILED
        handle.fault_cause = cause
        self._record(handle)

    def _record(self, handle: QueryHandle) -> None:
        """Count a handle's terminal outcome and queue it for :meth:`harvest`."""
        self._stats.record(handle)
        self._finished.append(handle)

    def device_health(self) -> dict[str, object]:
        """Health view of the serving session's devices.

        Reports how many of the configured devices survive, which were
        lost (indices as numbered at loss time — survivors renumber
        densely after each loss), per-device fault counts from the
        injector, and whether execution degraded to the host.
        """
        context = self.system.context
        return {
            "configured": context.config.num_devices,
            "alive": 0 if context.host_fallback else context.num_devices,
            "lost": list(context.lost_devices),
            "host_fallback": context.host_fallback,
            "faults_by_device": dict(
                self._injector.device_faults if self._injector is not None else {}
            ),
            "breaker_open": self.breaker.open,
            "breaker_trips": self.breaker.trips,
        }

    def run(self, request: QueryRequest) -> RunResult:
        """Submit one request and serve the queue to completion.

        Raises :class:`~repro.service.request.RequestRejected` when
        admission control refuses the request.
        """
        handle = self.submit(request)
        return handle.result()

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def in_flight(self) -> int:
        """Admitted requests not yet terminal (queued or suspended)."""
        return len(self._queue)

    def stats(self) -> ServiceStats:
        """A snapshot of the cumulative admission/latency/SLA statistics
        (counted at the state transitions, so :meth:`harvest` cannot reset it)."""
        snapshot = ServiceStats().merge(self._stats)
        snapshot.queued = len(self._queue)
        snapshot.makespan_s = self._clock_s
        snapshot.breaker_open = self.breaker.open
        snapshot.breaker_trips = self.breaker.trips
        return snapshot
