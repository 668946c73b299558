"""The four benchmark workloads.

Every parameter is a constant of this module; ``--seed`` is the only
thing that varies between runs, and the program under test receives only
the inputs generated here.  Arrival rates are *fixed* simulated q/s —
not re-calibrated from the code under test the way
``bench_replay.calibrate_capacity`` does, which would hand a faster
model more load.

A workload exposes two calls: ``setup(seed)`` builds the graphs and the
first instance of every system/service (timed as ``setup_s``), and
``run_pass(inputs, seed, verify, recorder)`` runs the whole workload
once and returns a :class:`PassResult` whose ``wall_s`` covers only the
calls into the program — verification and folding happen after the
clock stops.
"""

from __future__ import annotations

import gc
import random
import time
from dataclasses import dataclass, field

import numpy as np

from repro.algorithms import make_algorithm, reference
from repro.bench.workloads import batch_sources, build_workload
from repro.cluster import ClusterConfig, ClusterService
from repro.service import (
    GraphService,
    Priority,
    QueryRequest,
    ReplayHarness,
    RequestStatus,
    ServiceConfig,
    iter_arrival_times,
)
from repro.systems import make_system

#: Completed queries the verified warm-up pass re-runs solo.
VERIFY_SAMPLE = 32


@dataclass
class PassResult:
    """One pass over a workload."""

    #: Host seconds inside the calls into the program (the timed region).
    wall_s: float
    #: Queries sent (``solo_grid``: ``system.run`` calls).
    queries: int
    #: Rejected + failed + cancelled + value-mismatched queries.
    failed: int
    #: Every simulated value and exact count of the pass; two passes of
    #: one seed must produce equal dicts.
    sim: dict[str, float]
    #: Host seconds the warm-up pass spent verifying values.
    verify_s: float = 0.0


@dataclass
class Inputs:
    """What ``setup`` built, and how long its two stages took."""

    graph_build_s: float = 0.0
    systems_build_s: float = 0.0
    graph_edges: int = 0
    cells: list = field(default_factory=list)


def _fold_iteration(acc: dict[str, float], stats) -> None:
    """Add one ``IterationStats`` to the per-layer simulated sums."""
    acc["transfer.sim_bytes"] += stats.transfer_bytes
    acc["transfer.sim_pcie_s"] += stats.transfer_time
    acc["transfer.sim_compaction_s"] += stats.compaction_time
    acc["streams.sim_kernel_s"] += stats.kernel_time
    acc["schedule.sim_sync_s"] += stats.sync_time
    acc["schedule.sim_interconnect_bytes"] += stats.interconnect_bytes
    acc["cache.sim_hit_bytes"] += stats.cache_hit_bytes
    acc["cache.sim_miss_bytes"] += stats.cache_miss_bytes
    acc["cache.sim_evicted_bytes"] += stats.cache_evicted_bytes


def _fold_selection(acc: dict[str, float], stats) -> None:
    """HyTGraph's hybrid decision: partitions per engine, tasks after combining."""
    for engine, key in (("ExpTM-F", "filter"), ("ExpTM-C", "compaction"), ("ImpTM-ZC", "zero_copy")):
        acc["selection.%s_partitions" % key] += stats.engine_partitions.get(engine, 0)
    acc["combiner.partitions"] += sum(stats.engine_partitions.values())
    acc["combiner.tasks"] += sum(stats.engine_tasks.values())


_SIM_KEYS = (
    "transfer.sim_bytes", "transfer.sim_pcie_s", "transfer.sim_compaction_s",
    "streams.sim_kernel_s", "schedule.sim_sync_s", "schedule.sim_interconnect_bytes",
    "cache.sim_hit_bytes", "cache.sim_miss_bytes", "cache.sim_evicted_bytes",
    "selection.filter_partitions", "selection.compaction_partitions",
    "selection.zero_copy_partitions", "combiner.partitions", "combiner.tasks",
)


# ----------------------------------------------------------------------
# solo_grid
# ----------------------------------------------------------------------

SOLO_SYSTEMS = ("hytgraph", "emogi", "subway", "exptm-f")
SOLO_ALGORITHMS = ("bfs", "sssp", "cc", "pagerank")
SOLO_DATASETS = ("SK", "TW")
#: Traversal sources are drawn (by seed) from this many top-out-degree
#: vertices, so every BFS/SSSP reaches the giant component.
SOLO_SOURCE_POOL = 32
#: PHP is left out on purpose: from a hub source it converges in one
#: iteration on TW/FS having pushed only the hub's own edges (1e-5
#: simulated s, a "speed-up" of 0.48) — a degenerate cell.  Iteration
#: counts cannot tell that apart from HyTGraph's and Subway's one-sweep
#: CC, so a run counts as degenerate (and as failed) when it pushed fewer
#: than this share of the graph's edges.
SOLO_MIN_EDGE_SHARE = 0.5


class SoloGrid:
    """``make_system(...).run(program, source)`` back to back, no service."""

    name = "solo_grid"

    def __init__(self, quick: bool = False):
        self.scale = 0.1 if quick else 1.0

    def setup(self, seed: int) -> Inputs:
        inputs = Inputs()
        for index, dataset in enumerate(SOLO_DATASETS):
            pick = int(np.random.default_rng([seed, index]).integers(SOLO_SOURCE_POOL))
            for algorithm in SOLO_ALGORITHMS:
                started = time.perf_counter()
                workload = build_workload(dataset, algorithm, scale=self.scale)
                built = time.perf_counter()
                systems = {
                    name: make_system(name, workload.graph, config=workload.config)
                    for name in SOLO_SYSTEMS
                }
                inputs.graph_build_s += built - started
                inputs.systems_build_s += time.perf_counter() - built
                inputs.graph_edges += workload.graph.num_edges
                source = None
                if workload.program.needs_source:
                    source = batch_sources(workload.graph, SOLO_SOURCE_POOL)[pick]
                inputs.cells.append((algorithm, workload, source, systems))
        return inputs

    def run_pass(self, inputs: Inputs, seed: int, verify: bool, recorder=None) -> PassResult:
        gc.collect()
        results = []
        started = time.perf_counter()
        for _algorithm, workload, source, systems in inputs.cells:
            for name in SOLO_SYSTEMS:
                results.append(systems[name].run(workload.program, source=source))
        wall_s = time.perf_counter() - started

        acc = dict.fromkeys(_SIM_KEYS, 0.0)
        makespan = 0.0
        transfer_bytes = 0
        log_speedups = []
        failed = 0
        by_cell = [results[i:i + len(SOLO_SYSTEMS)] for i in range(0, len(results), len(SOLO_SYSTEMS))]
        for (_algorithm, workload, _source, _systems), runs in zip(inputs.cells, by_cell):
            floor = SOLO_MIN_EDGE_SHARE * workload.graph.num_edges
            times = {}
            for name, result in zip(SOLO_SYSTEMS, runs):
                makespan += result.total_time
                transfer_bytes += result.total_transfer_bytes
                times[name] = result.total_time
                if not result.converged or result.total_processed_edges < floor:
                    failed += 1
                for stats in result.iterations:
                    _fold_iteration(acc, stats)
                    if name == "hytgraph":
                        _fold_selection(acc, stats)
            best_baseline = min(times[name] for name in SOLO_SYSTEMS if name != "hytgraph")
            log_speedups.append(np.log(best_baseline / times["hytgraph"]))
        sim = dict(acc)
        sim["sim_makespan_s"] = makespan
        sim["sim_transfer_bytes"] = transfer_bytes
        sim["sim_speedup_vs_baselines"] = float(np.exp(np.mean(log_speedups)))

        verify_s = 0.0
        if verify:
            verify_started = time.perf_counter()
            for (algorithm, workload, source, _systems), runs in zip(inputs.cells, by_cell):
                failed += _solo_mismatches(algorithm, workload.graph, source, runs)
            verify_s = time.perf_counter() - verify_started
        return PassResult(wall_s, len(results), failed, sim, verify_s)


def _solo_mismatches(algorithm, graph, source, runs) -> int:
    """Runs of one cell whose values disagree with the reference solver.

    BFS and SSSP must match exactly (every system computes the same
    fixed point).  CC must induce exactly the reference's components;
    the label *names* are not compared, because HyTGraph names a
    component by its smallest id in hub-sorted numbering.  Δ-PageRank
    stops at a per-vertex residual, so the leftover depends on
    processing order and is held to the tolerance the repo's own
    integration tests use.
    """
    if algorithm == "pagerank":
        expected = reference.pagerank_values(graph)
        return sum(
            not np.allclose(result.values, expected, rtol=1e-2, atol=1e-3) for result in runs
        )
    if algorithm == "cc":
        expected = reference.connected_component_labels(graph)
        components = np.unique(expected).size
        return sum(
            not (
                np.unique(result.values).size == components
                and np.unique(np.stack([result.values, expected]), axis=1).shape[1] == components
            )
            for result in runs
        )
    solve = reference.bfs_levels if algorithm == "bfs" else reference.sssp_distances
    expected = solve(graph, source)
    return sum(not np.array_equal(result.values, expected) for result in runs)


# ----------------------------------------------------------------------
# The three serving workloads
# ----------------------------------------------------------------------


def mixed_trace(graph, count, rate, process, seed, interactive_fraction, bulk_fraction, deadline_s):
    """A seeded arrival-stamped request mix with *exact* class counts.

    Same request shapes as :func:`repro.service.timed_mixed_trace`
    (INTERACTIVE BFS lookup with a deadline / STANDARD SSSP / BULK
    PageRank, uniform non-sink sources, timestamps from the repo's
    arrival processes), but the classes are a seeded shuffle of fixed
    counts instead of independent draws.  A PageRank scan costs ~16x a
    lookup, so letting the scan count float (30 +/- 5 per 1 500) moves
    host time per query by ~6% from seed to seed — more than the bound
    the metric is held to.
    """
    rng = np.random.default_rng([seed, 0x6C6179])
    interactive = round(count * interactive_fraction)
    bulk = round(count * bulk_fraction)
    classes = np.full(count, int(Priority.STANDARD))
    classes[:interactive] = int(Priority.INTERACTIVE)
    classes[count - bulk:] = int(Priority.BULK)
    rng.shuffle(classes)
    candidates = np.flatnonzero(graph.out_degrees > 0)
    sources = candidates[rng.integers(candidates.size, size=count)]
    arrivals = iter_arrival_times(process, rate, count, seed)
    for priority, source, arrival in zip(classes, sources, arrivals):
        if priority == Priority.INTERACTIVE:
            yield QueryRequest(
                algorithm="bfs", source=int(source), priority=Priority.INTERACTIVE,
                deadline_s=deadline_s, arrival_s=float(arrival),
            )
        elif priority == Priority.BULK:
            yield QueryRequest(algorithm="pagerank", priority=Priority.BULK, arrival_s=float(arrival))
        else:
            yield QueryRequest(
                algorithm="sssp", source=int(source), priority=Priority.STANDARD,
                arrival_s=float(arrival),
            )


class _HarvestFold:
    """Keeps what ``harvest()`` hands back, per replica.

    After a harvested replay ``service.metrics()`` reads ``completed=0``
    and ``total_transfer_bytes=0`` — the service dropped its references —
    so the ledger accumulates the returned handles and batch records
    itself.  The public method is wrapped on each replica instance; the
    folding runs after the clock stops.
    """

    def __init__(self, service):
        self.replicas = list(getattr(service, "replicas", [service]))
        self.handles = [[] for _ in self.replicas]
        self.batches = []
        for host, replica in enumerate(self.replicas):
            replica.harvest = self._wrap(host, replica.harvest)

    def _wrap(self, host, harvest):
        def folding_harvest():
            finished, batches = harvest()
            self.handles[host].extend(finished)
            self.batches.extend(batches)
            return finished, batches

        return folding_harvest


class Replay:
    """``ReplayHarness`` over a seeded mixed trace at a fixed simulated rate."""

    def __init__(
        self, name, *, dataset, queries, rate, process="poisson", lookahead, deadline_s,
        interactive_fraction=0.90, bulk_fraction=0.02, cluster=None, devices=1, quick=False,
    ):
        self.name = name
        self.dataset = dataset
        self.queries = queries // 10 if quick else queries
        self.rate = rate
        self.process = process
        self.lookahead = lookahead
        self.deadline_s = deadline_s
        self.interactive_fraction = interactive_fraction
        self.bulk_fraction = bulk_fraction
        self.cluster = cluster
        self.service_config = cluster.service if cluster is not None else ServiceConfig(system="hytgraph")
        self.devices = devices

    def _make_service(self, workload):
        if self.cluster is not None:
            return ClusterService(self.cluster, graph=workload.graph, hardware=workload.config)
        return GraphService(self.service_config, graph=workload.graph, hardware=workload.config)

    def setup(self, seed: int) -> Inputs:
        inputs = Inputs()
        started = time.perf_counter()
        workload = build_workload(self.dataset, "sssp", scale=0.05, num_devices=self.devices)
        built = time.perf_counter()
        self._make_service(workload)
        inputs.graph_build_s = built - started
        inputs.systems_build_s = time.perf_counter() - built
        inputs.graph_edges = workload.graph.num_edges
        inputs.cells = [workload]
        return inputs

    def run_pass(self, inputs: Inputs, seed: int, verify: bool, recorder=None) -> PassResult:
        (workload,) = inputs.cells
        # A fresh service per pass: the simulated clock, the request ids
        # and the lru cache all carry state, and every pass must start
        # from the same one for its simulated values to repeat.
        service = self._make_service(workload)
        fold = _HarvestFold(service)
        trace = mixed_trace(
            workload.graph, self.queries, self.rate, self.process, seed,
            self.interactive_fraction, self.bulk_fraction, self.deadline_s,
        )
        if recorder is not None:
            trace = recorder.timed_iterator("trace.gen_self_s", "trace.next", trace)
        harness = ReplayHarness(service, lookahead=self.lookahead)
        gc.collect()
        started = time.perf_counter()
        report = harness.replay(trace)
        wall_s = time.perf_counter() - started
        sim, failed = self._fold(report, fold, service)
        verify_s = 0.0
        if verify:
            verify_started = time.perf_counter()
            failed += self._mismatches(fold, service.system, seed)
            verify_s = time.perf_counter() - verify_started
        return PassResult(wall_s, report.queries, failed, sim, verify_s)

    def _mismatches(self, fold: _HarvestFold, system, seed: int) -> int:
        """Sampled completed queries whose served values differ from a solo run.

        The harness's own ``verify_sample`` is not used: it runs inside
        ``ReplayReport.wall_s`` and only knows bitwise equality.  Served
        values must equal ``system.run`` bitwise, with one exception:
        under an adaptive cache policy the cost model discounts
        resident partitions, so engine selection — and with it the order
        Δ-PageRank accumulates in — differs from a cold solo run, and
        PageRank agrees only to its convergence tolerance (6e-3 seen).
        """
        done = [
            handle for handles in fold.handles for handle in handles
            if handle.status is RequestStatus.DONE
        ]
        sample = random.Random(seed).sample(done, min(VERIFY_SAMPLE, len(done)))
        adaptive = self.service_config.cache_policy != "static-prefix"
        mismatches = 0
        for handle in sample:
            request = handle.request
            solo = system.run(make_algorithm(request.algorithm), source=request.source)
            served = handle.result().values
            if adaptive and request.algorithm == "pagerank":
                mismatches += not np.allclose(served, solo.values, rtol=1e-2, atol=1e-3)
            else:
                mismatches += not np.array_equal(served, solo.values)
        return mismatches

    def _fold(self, report, fold: _HarvestFold, service) -> tuple[dict[str, float], int]:
        """The pass's simulated values: the report's, plus what only the harvest has.

        The report lacks the batch records (billed and amortized bytes,
        cache traffic, iteration stats), the per-host split and the count
        of INTERACTIVE queries *sent* — its attainment is over queries
        that carried a deadline and completed.
        """
        sent_interactive = 0
        completed_per_host = [0] * len(fold.replicas)
        for host, handles in enumerate(fold.handles):
            for handle in handles:
                sent_interactive += handle.request.priority is Priority.INTERACTIVE
                completed_per_host[host] += handle.status is RequestStatus.DONE
        if sum(completed_per_host) != report.completed:
            raise AssertionError(
                "folded %d completed queries, the replay reported %d"
                % (sum(completed_per_host), report.completed)
            )
        interactive = report.classes["interactive"]

        acc = dict.fromkeys(_SIM_KEYS, 0.0)
        billed = amortized = wave_queries = super_iterations = 0
        hit = miss = evicted = injected = retries = 0
        checkpoint_s = recovery_s = 0.0
        for batch in fold.batches:
            billed += batch.total_transfer_bytes
            amortized += batch.amortized_bytes
            wave_queries += batch.num_queries
            super_iterations += batch.super_iterations
            hit += batch.cache_hit_bytes
            miss += batch.cache_miss_bytes
            evicted += batch.cache_evicted_bytes
            injected += batch.faults_injected
            retries += batch.retries
            checkpoint_s += batch.checkpoint_time_s
            recovery_s += batch.recovery_time_s
            for result in batch.results:
                for stats in result.iterations:
                    _fold_iteration(acc, stats)
                    _fold_selection(acc, stats)
        sim = dict(acc)
        sim.update({
            "sim_makespan_s": report.makespan_s,
            "sim_transfer_bytes": billed,
            "sim_interactive_p50_s": interactive["p50_s"],
            "sim_interactive_p99_s": interactive["p99_s"],
            "service.sim_interactive_p95_s": interactive["p95_s"],
            "service.sim_queue_wait_mean_s": interactive["mean_wait_s"],
            "sim_sla_attainment": interactive["sla_met"] / sent_interactive,
            "sim_bulk_makespan_s": report.bulk_makespan_s,
            "interactive_sent": sent_interactive,
            "trace.requests": report.queries,
            "batch.waves": len(fold.batches),
            "batch.wave_queries": wave_queries,
            "batch.super_iterations": super_iterations,
            "batch.sim_amortized_bytes": amortized,
            "cache.sim_hit_bytes": hit,
            "cache.sim_miss_bytes": miss,
            "cache.sim_evicted_bytes": evicted,
            "admission.rejected": report.rejected,
            "service.preemptions": report.preemptions,
            "faults.injected": injected,
            "faults.retries": retries,
            "faults.sim_checkpoint_s": checkpoint_s,
            "faults.sim_recovery_s": recovery_s,
        })
        if self.cluster is not None:
            counters = service.router.counters()
            routed = counters["affinity_hits"] + counters["spills"] + counters["rejections"]
            sim.update({
                "faults.injected": injected + len(service.events),
                "router.affinity_ratio": counters["affinity_hits"] / routed,
                "router.spills": counters["spills"],
                "router.failovers": counters["failovers"],
                "cluster.sim_shipped_bytes": service.shipped_bytes,
                "cluster.host_imbalance": max(completed_per_host) / np.mean(completed_per_host),
                "cluster.alive_hosts_end": len(service.alive_hosts()),
            })
        return sim, report.rejected + report.failed + report.cancelled


def make_workloads(quick: bool = False) -> dict:
    """The four workloads by name (``quick``: same shapes, ~1/10 the work)."""
    cluster = ClusterConfig(
        hosts=4,
        gpus_per_host=2,
        network="rdma",
        service=ServiceConfig(
            system="hytgraph", preemption=True, cache_policy="lru",
            # Cluster wave 79 is the midpoint of the full replay.
            faults="host-loss@%d:host=3" % (8 if quick else 79),
        ),
    )
    workloads = [
        SoloGrid(quick),
        Replay(
            "replay_underload", dataset="SK", queries=1500, rate=5_000.0,
            lookahead=256, deadline_s=0.008, quick=quick,
        ),
        Replay(
            "replay_saturated", dataset="SK", queries=2000, rate=24_000.0,
            lookahead=256, deadline_s=0.008, quick=quick,
        ),
        Replay(
            "cluster_failover", dataset="TW", queries=1400, rate=60_000.0, process="bursty",
            lookahead=512, deadline_s=0.002, interactive_fraction=0.85, bulk_fraction=0.05,
            cluster=cluster, devices=2, quick=quick,
        ),
    ]
    return {workload.name: workload for workload in workloads}
