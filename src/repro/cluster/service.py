"""The :class:`ClusterService`: N replicated GraphServices behind one router.

Each simulated host runs one full :class:`~repro.service.GraphService`
replica — its own warmed execution context, device cache, admission
controller, circuit breaker and fault injector — over the *same* graph.
The cluster front-end routes submissions by consistent-hash affinity on
the session key (request label, falling back to the request id), spills
to the least-loaded replica when the affine host is saturated, and
rejects only when every alive replica would refuse
(:mod:`repro.cluster.router`).

Serving advances in *cluster waves*: each :meth:`step` picks the alive
replica with pending work and the smallest simulated clock and serves
one of its scheduling waves, so the cluster timeline interleaves the
replicas' waves in deterministic earliest-clock order.  Per-query values
are bitwise identical to single-host execution — a replica is exactly a
``GraphService``, and routing never changes semantics, only placement.

Host loss (``host-loss`` fault specs) is interpreted here, not by the
per-replica injectors: at the scheduled cluster wave the replica's
queued and suspended queries fail over to surviving replicas.  Each
migrated query's checkpoint bytes are shipped over the
:class:`~repro.sim.config.NetworkConfig` fabric; the receiving host's
network lane is a serialized timeline resource, and the query only
becomes schedulable once its shipment lands.  With tracing on, the wait,
the shipment (``checkpoint-ship``) and the network occupancy all land as
spans, so a migrated query's trace tiles still sum exactly to its
measured latency.
"""

from __future__ import annotations

from functools import reduce
from typing import Sequence

from repro.algorithms import make_algorithm
from repro.cluster.config import ClusterConfig
from repro.cluster.router import Router
from repro.metrics.results import BatchResult
from repro.obs import MetricsRegistry, write_chrome_trace
from repro.obs.tracer import Span
from repro.service.core import GraphService
from repro.service.request import QueryHandle, QueryRequest
from repro.service.stats import ServiceStats, register_service_metrics

__all__ = ["ClusterService"]


class _ClusterTracer:
    """Facade over the replicas' tracers (the replay-harness hook)."""

    def __init__(self, replicas: Sequence[GraphService]):
        self._replicas = replicas

    @property
    def enabled(self) -> bool:
        return any(replica.tracer.enabled for replica in self._replicas)

    def set_sample(self, sample: float) -> None:
        for replica in self._replicas:
            replica.tracer.set_sample(sample)

    def _sum(self, name: str) -> int:
        # The no-op tracer of an untraced replica has no span counters.
        return sum(getattr(replica.tracer, name, 0) for replica in self._replicas)

    total_spans = property(lambda self: self._sum("total_spans"))
    dropped_spans = property(lambda self: self._sum("dropped_spans"))


class ClusterService:
    """Replicated serving over N simulated hosts (see module docstring).

    Parameters
    ----------
    config:
        The :class:`~repro.cluster.ClusterConfig` (defaults to one
        single-GPU host over TCP).
    graph / hardware:
        Optional prebuilt graph and hardware for the replicas'
        self-built path (as in :class:`~repro.service.GraphService`);
        all replicas share the graph object but own their systems.
    """

    def __init__(self, config: ClusterConfig | None = None, *, graph=None, hardware=None):
        self.config = config or ClusterConfig()
        replica_config = self.config.replica_config()
        first = GraphService(replica_config, graph=graph, hardware=hardware)
        self.replicas = [first] + [
            GraphService(replica_config, graph=first.graph, hardware=first.system.config)
            for _ in range(self.config.hosts - 1)
        ]
        self.network = self.config.network
        self.router = Router(self.config.hosts)
        self._alive = [True] * self.config.hosts
        #: Cluster waves served (each = one replica scheduling wave);
        #: the clock ``host-loss`` fault offsets count against.
        self._steps = 0
        #: Cluster-global request-id counter, synced into whichever
        #: replica a request routes to — ids stay unique and submission-
        #: ordered across the cluster, so per-replica priority
        #: tie-breaking behaves exactly as on one host.
        self._next_request_id = 0
        #: Pending host-loss specs and the positions already fired.
        self._host_loss = list(self.config.host_loss_specs())
        self._fired: set[int] = set()
        #: Receiver-side network lanes: each host's NIC is a serialized
        #: timeline resource — concurrent inbound shipments queue.
        self._net_busy = [0.0] * self.config.hosts
        #: Cross-host checkpoint-shipping totals.
        self.shipped_bytes = 0
        self.ship_time_s = 0.0
        #: Chronological cluster-level fault events.
        self.events: list[dict] = []
        self.tracer = _ClusterTracer(self.replicas)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def graph(self):
        """The graph every replica serves."""
        return self.replicas[0].graph

    @property
    def system(self):
        """Replica 0's system (the bitwise-verification reference)."""
        return self.replicas[0].system

    @property
    def batches(self) -> list[BatchResult]:
        """Every replica's served batch records, in host order."""
        return [batch for replica in self.replicas for batch in replica.batches]

    def alive_hosts(self) -> list[int]:
        """Indices of the hosts still serving."""
        return [host for host, alive in enumerate(self._alive) if alive]

    @property
    def in_flight(self) -> int:
        """Admitted requests not yet terminal, over every replica."""
        return sum(replica.in_flight for replica in self.replicas)

    # ------------------------------------------------------------------
    # Lifecycle: submit -> step/drain -> harvest
    # ------------------------------------------------------------------
    def submit(self, request: QueryRequest) -> QueryHandle:
        """Route and submit one request; never executes anything."""
        return self._submit_resolved(request, make_algorithm(request.algorithm.lower()))

    def submit_many(self, requests: Sequence[QueryRequest]) -> list[QueryHandle]:
        """Submit several requests; one handle each, in order."""
        return [self.submit(request) for request in requests]

    def _submit_resolved(self, request: QueryRequest, program) -> QueryHandle:
        primary = self.replicas[0]
        # Validate before routing: an invalid request raises identically
        # no matter which replica it would have landed on.
        primary._check_program(program)
        source = primary._resolve_source(program, request.source)
        host = self._route(request, program, source)
        replica = self.replicas[host]
        if replica._graph_symmetric is None:
            replica._graph_symmetric = primary._graph_symmetric
        # Sync the cluster-global id into the chosen replica so its
        # submit numbers the handle; read the incremented value back.
        replica._next_request_id = self._next_request_id
        handle = replica._submit_resolved(request, program)
        self._next_request_id = replica._next_request_id
        # result() must drain the cluster, not one replica: the handle
        # may migrate hosts on failover, and host-loss only fires at
        # cluster wave boundaries.
        handle._service = self
        return handle

    def _route(self, request: QueryRequest, program, source: int | None) -> int:
        """The serving host for one request (side-effect-free probes)."""
        alive = self.alive_hosts()
        if not alive:
            raise RuntimeError("every host of the cluster has been lost")
        key = request.label or "q%d" % self._next_request_id
        estimates: dict[int, int] = {}

        def estimate(host: int) -> int:
            if host not in estimates:
                estimates[host] = self.replicas[host].admission.estimate_request_bytes(
                    program, source
                )
            return estimates[host]

        def saturated(host: int) -> bool:
            replica = self.replicas[host]
            if replica.breaker.open:
                return True
            budget = replica.admission.budget_bytes
            if budget is None:
                return False
            return replica.admission.pending_bytes + estimate(host) > budget

        def refuses(host: int) -> bool:
            return self.replicas[host].admission.refusal(estimate(host)) is not None

        load_order = sorted(
            alive,
            key=lambda host: (
                self.replicas[host].admission.pending_bytes,
                self.replicas[host].in_flight,
                host,
            ),
        )
        host, _outcome = self.router.route(key, alive, load_order, saturated, refuses)
        return host

    def step(self) -> BatchResult | None:
        """Serve the next cluster wave (``None`` when every queue is idle).

        Fires any host-loss faults due at this wave, then steps the
        alive replica with pending work and the smallest simulated clock
        (host index breaks ties) — a deterministic interleaving of the
        replicas' wave timelines.
        """
        self._fire_host_loss()
        candidates = [
            host for host in self.alive_hosts() if self.replicas[host].in_flight
        ]
        while candidates:
            host = min(
                candidates, key=lambda h: (self.replicas[h]._clock_s, h)
            )
            batch = self.replicas[host].step()
            if batch is not None:
                self._steps += 1
                return batch
            # The replica's breaker shed its whole queue; try the next.
            candidates.remove(host)
        return None

    def drain(self) -> list[BatchResult]:
        """Serve every queued request; returns the waves' batch records."""
        served: list[BatchResult] = []
        while True:
            batch = self.step()
            if batch is None:
                return served
            served.append(batch)

    def run(self, request: QueryRequest):
        """Submit one request and serve the cluster to completion."""
        return self.submit(request).result()

    def harvest(self) -> tuple[list[QueryHandle], list[BatchResult]]:
        """Detach finished handles and batch records from every replica."""
        finished: list[QueryHandle] = []
        batches: list[BatchResult] = []
        for replica in self.replicas:
            replica_finished, replica_batches = replica.harvest()
            finished.extend(replica_finished)
            batches.extend(replica_batches)
        return finished, batches

    # ------------------------------------------------------------------
    # Host loss and failover
    # ------------------------------------------------------------------
    def _fire_host_loss(self) -> None:
        """Apply the host-loss specs due at this cluster wave."""
        for position, spec in enumerate(self._host_loss):
            if position in self._fired or self._steps < spec.at_super_iteration:
                continue
            self._fired.add(position)
            event: dict = {"wave": self._steps, "kind": "host-loss"}
            alive = self.alive_hosts()
            if not alive:
                event["skipped"] = "no host left to lose"
                self.events.append(event)
                continue
            host = spec.host if spec.host is not None else alive[-1]
            event["host"] = host
            if not self._alive[host]:
                event["skipped"] = "host already lost"
                self.events.append(event)
                continue
            self._lose_host(host, event)

    def _lose_host(self, host: int, event: dict) -> None:
        """Fail the host over: ship its in-flight queries to survivors.

        Fires between waves, so "in flight" is exactly the queued and
        suspended handles — nothing is RUNNING at a wave boundary.  Each
        migrated handle keeps its id, priority and (for suspended
        queries) checkpoint; the destination is its consistent-hash
        survivor, its shipment is billed on the receiver's network lane,
        and it becomes schedulable only once the shipment lands.
        Without survivors the queries fail terminally (typed, never a
        silent drop).
        """
        source = self.replicas[host]
        self._alive[host] = False
        survivors = self.alive_hosts()
        t_loss = source._clock_s
        moved = list(source._queue)
        source._queue = []
        migrated = 0
        failed = 0
        for handle in moved:
            source.admission.release([handle])
            if not survivors:
                source._fail(handle, "host %d lost with no surviving replica" % host)
                failed += 1
                continue
            key = handle.request.label or "q%d" % handle.request_id
            dst_host = self.router.ring.affine_host(key, survivors)
            dst = self.replicas[dst_host]
            ship_bytes = (
                handle._checkpoint.checkpoint_bytes
                if handle._checkpoint is not None
                else 0
            )
            ship_start = max(t_loss, self._net_busy[dst_host])
            ship_s = self.network.transfer_seconds(ship_bytes)
            landing = ship_start + ship_s
            self._net_busy[dst_host] = landing
            handle.ready_s = max(handle.ready_s, landing)
            dst._queue.append(handle)
            # The reservation and the submitted/admitted tally move with
            # the handle (release and the terminal-state count happen
            # where it completes), so every host's row keeps admitted ==
            # completed + failed + cancelled + in-flight.
            dst.admission.pending_bytes += handle.estimated_bytes
            source._stats.submitted -= 1
            dst._stats.submitted += 1
            self.router.failovers += 1
            self.shipped_bytes += ship_bytes
            self.ship_time_s += ship_s
            migrated += 1
            self._trace_failover(
                handle, source, dst, host, dst_host, ship_start, ship_bytes, ship_s
            )
        event["migrated"] = migrated
        if failed:
            event["failed"] = failed
        self.events.append(event)

    def _trace_failover(
        self, handle, source, dst, src_host, dst_host, ship_start, ship_bytes, ship_s
    ) -> None:
        """Record one migration's spans on the destination tracer.

        The query's lane gets its wait tile up to the shipment start and
        the ``checkpoint-ship`` copy tile, so the flight recorder's
        per-query breakdown still sums exactly to the measured latency;
        the receiving host's ``net`` lane gets the network occupancy.
        """
        tracer = dst.tracer
        if not tracer.enabled or not tracer.trace_query(handle.request_id):
            return
        track = GraphService._track_of(handle)
        start = (
            source.tracer.cursor(track, handle.arrival_s)
            if source.tracer.enabled
            else handle.arrival_s
        )
        name = "suspended" if handle.preemptions else "queued"
        if ship_start > start:
            tracer.span("query", name, track, start, ship_start)
        tracer.span(
            "checkpoint", "checkpoint-ship", track, ship_start, ship_start + ship_s,
            checkpoint_bytes=ship_bytes, src_host=src_host, dst_host=dst_host,
        )
        tracer.span(
            "network", "checkpoint-ship", "net", ship_start, ship_start + ship_s,
            checkpoint_bytes=ship_bytes, src_host=src_host, dst_host=dst_host,
            request_id=handle.request_id,
        )

    # ------------------------------------------------------------------
    # Statistics and observability
    # ------------------------------------------------------------------
    def stats(self) -> ServiceStats:
        """Aggregate statistics: :meth:`ServiceStats.merge` over the replicas.

        Counters sum, class tallies merge, the makespan is the latest
        replica clock; with one host the fold *is* the replica's
        snapshot, value for value (the degenerate-equivalence guarantee).
        """
        return reduce(
            ServiceStats.merge, (replica.stats() for replica in self.replicas), ServiceStats()
        )

    def metrics(self) -> MetricsRegistry:
        """Aggregate ``service.*`` rows plus the ``cluster.*`` vocabulary.

        Per-replica breakdowns land under ``cluster.host<h>.*`` —
        admission counters, makespan/throughput gauges and the per-class
        latency percentiles of :meth:`ServiceStats.rows` — next to the
        router and network-shipping counters.
        """
        registry = MetricsRegistry()
        snapshots = [replica.stats() for replica in self.replicas]
        register_service_metrics(
            registry, reduce(ServiceStats.merge, snapshots, ServiceStats())
        )
        registry.gauge("cluster.hosts", float(self.config.hosts))
        registry.gauge("cluster.hosts_alive", float(len(self.alive_hosts())))
        for name, value in self.router.counters().items():
            registry.count("cluster.router.%s" % name, value)
        registry.count("cluster.network.shipped_bytes", self.shipped_bytes)
        registry.gauge("cluster.network.ship_time_s", self.ship_time_s)
        registry.gauge("cluster.network.bandwidth", self.network.bandwidth)
        registry.gauge("cluster.network.latency", self.network.latency)
        for host, snapshot in enumerate(snapshots):
            prefix = "cluster.host%d" % host
            for name in (
                "submitted", "admitted", "rejected", "completed", "failed",
                "cancelled", "queued", "waves", "preemptions",
            ):
                registry.count("%s.%s" % (prefix, name), getattr(snapshot, name))
            registry.gauge("%s.alive" % prefix, float(self._alive[host]))
            registry.gauge("%s.makespan_s" % prefix, snapshot.makespan_s)
            registry.gauge(
                "%s.queries_per_second" % prefix, snapshot.queries_per_second
            )
            for name, row in snapshot.rows().items():
                for quantile in (50, 95, 99):
                    registry.gauge(
                        "%s.latency_p%d_s.%s" % (prefix, quantile, name),
                        row["p%d_s" % quantile],
                    )
        return registry

    def observability(self) -> dict:
        """The machine-readable picture: stats ∪ metrics ∪ cluster view."""
        payload = self.stats().as_dict()
        payload["metrics"] = self.metrics().snapshot()
        payload["device_health"] = self.device_health()
        payload["cluster"] = {
            "hosts": self.config.hosts,
            "gpus_per_host": self.config.gpus_per_host,
            "network": {
                "kind": self.network.kind,
                "bandwidth": self.network.bandwidth,
                "latency": self.network.latency,
            },
            "hosts_alive": len(self.alive_hosts()),
            "hosts_lost": [
                host for host, alive in enumerate(self._alive) if not alive
            ],
            "router": self.router.counters(),
            "shipped_bytes": self.shipped_bytes,
            "ship_time_s": self.ship_time_s,
            "events": list(self.events),
            "per_host": [
                {"host": host, "alive": self._alive[host], **replica.stats().as_dict()}
                for host, replica in enumerate(self.replicas)
            ],
        }
        return payload

    def device_health(self) -> dict[str, object]:
        """Cluster health: surviving hosts plus each replica's devices."""
        return {
            "hosts": self.config.hosts,
            "hosts_alive": len(self.alive_hosts()),
            "hosts_lost": [
                host for host, alive in enumerate(self._alive) if not alive
            ],
            "replicas": [replica.device_health() for replica in self.replicas],
        }

    # ------------------------------------------------------------------
    # Tracing
    # ------------------------------------------------------------------
    def trace_spans(self) -> list[Span]:
        """The merged cluster trace, host-qualified and re-numbered.

        Query lanes (``query:*``) stay unprefixed — queries are cluster-
        global and may migrate hosts — while every other track gains a
        ``host<h>:`` prefix (``host0:service``, ``host1:dev0:pcie``,
        ``host2:net``, ...).  The merge is sorted by
        ``(start, end, host, span id)`` and re-numbered, so equal runs
        export bitwise-equal traces.
        """
        if len(self.replicas) == 1:
            # Degenerate single host: keep the replica's emission order
            # and span ids — the trace is the GraphService trace with
            # every non-query track ``host0:``-qualified.
            return [
                Span(
                    span.span_id, span.category, span.name,
                    span.track
                    if span.track.startswith("query:")
                    else "host0:%s" % span.track,
                    span.start_s, span.end_s, dict(span.attrs),
                )
                for span in self.replicas[0].tracer.spans()
            ] if self.replicas[0].tracer.enabled else []
        merged: list[tuple] = []
        for host, replica in enumerate(self.replicas):
            if not replica.tracer.enabled:
                continue
            for span in replica.tracer.spans():
                track = (
                    span.track
                    if span.track.startswith("query:")
                    else "host%d:%s" % (host, span.track)
                )
                merged.append((span.start_s, span.end_s, host, span.span_id, span, track))
        merged.sort(key=lambda item: (item[0], item[1], item[2], item[3]))
        return [
            Span(index, span.category, span.name, track, span.start_s, span.end_s,
                 dict(span.attrs))
            for index, (_, _, _, _, span, track) in enumerate(merged)
        ]

    def export_trace(self, path):
        """Write the merged cluster trace as a Chrome trace file."""
        if not self.tracer.enabled:
            raise ValueError(
                "this cluster does not trace; build it with "
                "ServiceConfig(tracing=True)"
            )
        return write_chrome_trace(
            path,
            self.trace_spans(),
            metrics=self.metrics().snapshot(),
            dropped=self.tracer.dropped_spans,
        )
