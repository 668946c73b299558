"""Tests of the session-oriented serving API (:mod:`repro.service`).

Four guarantees anchor the service:

1. **Equivalence** — a query served through :class:`GraphService` returns
   per-vertex values (and per-iteration simulated times) bitwise equal to
   a standalone ``system.run`` for every (algorithm x system) cell.
2. **Priority scheduling** — on a mixed batch, the high-priority class's
   latencies under priority scheduling are never worse than under FIFO,
   and query values are identical under both disciplines.
3. **Admission control** — requests are rejected or queued against the
   estimated-bytes-in-flight budget, including the zero-budget and
   unlimited-budget edges.
4. **Lifecycle** — handles walk submit -> poll -> result deterministically
   and the per-class statistics (latency percentiles, SLA attainment)
   add up.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import make_algorithm
from repro.bench.workloads import build_workload
from repro.cluster import ClusterConfig, ClusterService
from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat_graph
from repro.runtime.batch import QueryBatchRunner
from repro.service import (
    GraphService,
    Priority,
    QueryRequest,
    RequestRejected,
    RequestStatus,
    ServiceConfig,
)
from repro.sim.config import HardwareConfig
from repro.systems import SYSTEMS, make_system
from repro.systems.exptm_filter import ExpTMFilterSystem
from repro.systems.hytgraph import HyTGraphSystem

ALGORITHM_KEYS = ["sssp", "bfs", "cc", "pagerank", "php"]


@pytest.fixture(scope="module")
def graphs():
    """One graph per algorithm flavour (weighted, symmetrized, plain)."""
    plain = rmat_graph(500, 4000, seed=9, name="rmat")
    weighted = rmat_graph(500, 4000, seed=9, weighted=True, name="rmat-w")
    symmetric = plain.symmetrize()
    symmetric = CSRGraph(
        symmetric.row_offset, symmetric.column_index, symmetric.edge_value, name="rmat-sym"
    )
    return {"sssp": weighted, "cc": symmetric, "bfs": plain, "pagerank": plain, "php": plain}


def _graph_for(graphs, algorithm_key):
    return graphs[algorithm_key]


def _transfer_bound_config(graph):
    return HardwareConfig(gpu_memory_bytes=graph.edge_data_bytes // 2, pcie_bandwidth=1e9)


# ----------------------------------------------------------------------
# (1) bitwise equivalence across the full algorithm x system grid
# ----------------------------------------------------------------------


@pytest.mark.parametrize("system_name", sorted(SYSTEMS))
@pytest.mark.parametrize("algorithm_key", ALGORITHM_KEYS)
def test_service_values_bitwise_equal_standalone_run(graphs, system_name, algorithm_key):
    graph = _graph_for(graphs, algorithm_key)
    program = make_algorithm(algorithm_key)
    source = 0 if program.needs_source else None
    system = make_system(system_name, graph, config=_transfer_bound_config(graph))

    standalone = system.run(program, source=source)
    service = GraphService(system=system)
    served = service.run(QueryRequest(algorithm=algorithm_key, source=source))

    assert np.array_equal(np.asarray(standalone.values), np.asarray(served.values))
    assert served.per_iteration_times() == standalone.per_iteration_times()
    assert served.total_transfer_bytes == standalone.total_transfer_bytes
    assert served.converged == standalone.converged


# ----------------------------------------------------------------------
# (2) priority scheduling invariants
# ----------------------------------------------------------------------


def _mixed_trace():
    return [
        QueryRequest(algorithm="pagerank", priority=Priority.BULK),
        QueryRequest(algorithm="pagerank", priority=Priority.BULK),
        QueryRequest(algorithm="bfs", source=3, priority=Priority.INTERACTIVE),
        QueryRequest(algorithm="bfs", source=9, priority=Priority.INTERACTIVE),
        QueryRequest(algorithm="bfs", source=21, priority=Priority.INTERACTIVE),
    ]


def _serve_mixed(graphs, scheduling):
    graph = _graph_for(graphs, "bfs")
    system = ExpTMFilterSystem(graph, config=_transfer_bound_config(graph))
    service = GraphService(
        ServiceConfig(system="exptm-f", scheduling=scheduling), system=system
    )
    handles = service.submit_many(_mixed_trace())
    service.drain()
    return service, handles


def test_high_priority_latencies_never_worse_than_fifo(graphs):
    """The invariant: priority scheduling cannot slow the high class down."""
    fifo_service, fifo_handles = _serve_mixed(graphs, "fifo")
    prio_service, prio_handles = _serve_mixed(graphs, "priority")

    for fifo, prio in zip(fifo_handles, prio_handles):
        if fifo.request.priority is Priority.INTERACTIVE:
            assert prio.latency_s <= fifo.latency_s + 1e-15
    # ... and the high-priority class makespan (its slowest member)
    # strictly improves on this transfer-bound mix.
    fifo_max = max(
        handle.latency_s
        for handle in fifo_handles
        if handle.request.priority is Priority.INTERACTIVE
    )
    prio_max = max(
        handle.latency_s
        for handle in prio_handles
        if handle.request.priority is Priority.INTERACTIVE
    )
    assert prio_max < fifo_max


def test_priority_scheduling_preserves_values_and_throughput(graphs):
    _, fifo_handles = _serve_mixed(graphs, "fifo")
    _, prio_handles = _serve_mixed(graphs, "priority")
    for fifo, prio in zip(fifo_handles, prio_handles):
        assert np.array_equal(
            np.asarray(fifo.result().values), np.asarray(prio.result().values)
        )


def test_batch_runner_priority_ranks_validated(graphs):
    graph = _graph_for(graphs, "bfs")
    system = ExpTMFilterSystem(graph, config=HardwareConfig())
    program = make_algorithm("bfs")
    with pytest.raises(ValueError, match="priorities"):
        QueryBatchRunner(system).run([(program, 0), (program, 1)], priorities=[0])


def test_batch_latencies_bounded_by_makespan(graphs):
    graph = _graph_for(graphs, "bfs")
    system = HyTGraphSystem(graph, config=_transfer_bound_config(graph))
    program = make_algorithm("bfs")
    batch = QueryBatchRunner(system).run(
        [(program, source) for source in (0, 3, 9)], priorities=[2, 1, 0]
    )
    assert len(batch.latencies) == 3
    for latency, result in zip(batch.latencies, batch.results):
        assert 0.0 < latency <= batch.makespan + 1e-12
        assert result.extra["batch_latency_s"] == latency
    assert batch.extra["scheduling"] == "priority"


def test_equal_priorities_reproduce_fifo_bitwise(graphs):
    """All-equal ranks must not perturb the merged schedule at all."""
    graph = _graph_for(graphs, "bfs")
    config = _transfer_bound_config(graph)
    program = make_algorithm("bfs")
    queries = [(program, source) for source in (0, 3, 9)]
    fifo = QueryBatchRunner(HyTGraphSystem(graph, config=config)).run(queries)
    ranked = QueryBatchRunner(HyTGraphSystem(graph, config=config)).run(
        queries, priorities=[1, 1, 1]
    )
    assert ranked.makespan == fifo.makespan
    assert ranked.latencies == fifo.latencies
    for left, right in zip(fifo.results, ranked.results):
        assert left.per_iteration_times() == right.per_iteration_times()


# ----------------------------------------------------------------------
# (3) admission control
# ----------------------------------------------------------------------


def _lookup(source=3, **kwargs):
    return QueryRequest(algorithm="bfs", source=source, **kwargs)


def _service(graphs, **config_kwargs):
    # ExpTM-F keeps the graph's vertex order, so contiguous sources
    # (0..2) share a partition and therefore an admission estimate.
    graph = _graph_for(graphs, "bfs")
    system = ExpTMFilterSystem(graph, config=_transfer_bound_config(graph))
    return GraphService(ServiceConfig(system="exptm-f", **config_kwargs), system=system)


def test_unlimited_budget_admits_everything_in_one_wave(graphs):
    service = _service(graphs, admission_budget_bytes=None)
    handles = service.submit_many([_lookup(s) for s in (0, 3, 9, 21)])
    assert all(handle.status is RequestStatus.QUEUED for handle in handles)
    waves = service.drain()
    assert len(waves) == 1
    stats = service.stats()
    assert stats.admitted == 4 and stats.rejected == 0 and stats.completed == 4


def test_zero_budget_rejects_every_transferring_request(graphs):
    service = _service(graphs, admission_budget_bytes=0)
    handle = service.submit(_lookup())
    assert handle.status is RequestStatus.REJECTED
    assert handle.estimated_bytes > 0
    assert "admission budget" in handle.reject_reason
    with pytest.raises(RequestRejected, match="rejected"):
        handle.result()
    assert service.drain() == []
    assert service.stats().rejected == 1


def test_oversized_request_rejected_under_both_policies(graphs):
    for policy in ("queue", "reject"):
        service = _service(graphs, admission_budget_bytes=1, admission_policy=policy)
        handle = service.submit(QueryRequest(algorithm="pagerank", priority=Priority.BULK))
        assert handle.status is RequestStatus.REJECTED, policy
        assert "exceed" in handle.reject_reason


def _admission(budget, policy="queue", pending=0):
    from repro.service.admission import AdmissionController

    admission = AdmissionController(None, budget_bytes=budget, policy=policy)
    admission.pending_bytes = pending
    return admission


def _estimates(*sizes):
    from types import SimpleNamespace

    return [SimpleNamespace(estimated_bytes=size) for size in sizes]


def test_refusal_without_budget_admits_everything():
    for policy in ("queue", "reject"):
        admission = _admission(None, policy, pending=10**12)
        assert admission.refusal(10**12) is None
        assert admission.decide(10**12) is None
        assert admission.pending_bytes == 2 * 10**12


def test_refusal_names_the_oversized_estimate():
    for policy in ("queue", "reject"):
        admission = _admission(100, policy)
        reason = admission.refusal(101)
        assert reason == "estimated 101 bytes in flight exceed the 100-byte admission budget"
        assert admission.decide(101) == reason
        assert admission.pending_bytes == 0
        assert admission.refusal(100) is None


def test_reject_policy_refuses_only_while_the_queue_fills_the_budget():
    queue = _admission(100, "queue", pending=60)
    reject = _admission(100, "reject", pending=60)
    assert queue.refusal(50) is None
    assert reject.refusal(50) == (
        "admission budget exhausted (60 of 100 bytes pending); retry after the queue drains"
    )
    assert reject.refusal(40) is None
    reject.release(_estimates(60))
    assert reject.refusal(50) is None and reject.pending_bytes == 0


def test_take_wave_is_greedy_in_queue_order_and_release_clamps():
    admission = _admission(100)
    handles = _estimates(60, 50, 10)
    # Greedy stops at the first handle that does not fit: no skipping
    # ahead, so a large request is never starved by later small ones.
    assert admission.take_wave(handles) == handles[:1]
    assert admission.take_wave(handles[1:]) == handles[1:]
    # The head always joins, so the queue makes progress.
    assert admission.take_wave(_estimates(150, 1)) == _estimates(150)
    assert _admission(None).take_wave(handles) == handles
    admission.pending_bytes = 30
    admission.release(handles)
    assert admission.pending_bytes == 0


def _co_partition_sources(service, count):
    """``count`` vertices sharing one partition (equal admission estimates)."""
    bounds = service.system.partitioning.vertex_boundaries.tolist()
    for start, end in zip(bounds, bounds[1:]):
        if end - start >= count:
            return list(range(start, start + count))
    raise AssertionError("no partition holds %d vertices" % count)


def test_queue_policy_splits_waves_and_charges_queue_wait(graphs):
    service = _service(graphs, admission_budget_bytes=None)
    sources = _co_partition_sources(service, 3)
    probe = service.submit(_lookup(sources[0]))
    estimate = probe.estimated_bytes
    assert estimate > 0
    service.drain()

    # A budget of exactly one lookup's estimate forces one query per wave
    # (the sources share a partition, so their estimates are equal).
    service = _service(
        graphs, admission_budget_bytes=estimate, admission_policy="queue"
    )
    handles = service.submit_many([_lookup(s) for s in sources])
    assert all(handle.status is RequestStatus.QUEUED for handle in handles)
    waves = service.drain()
    assert len(waves) == 3
    assert [handle.wave for handle in handles] == [0, 1, 2]
    # Later waves wait behind earlier ones: latency includes queue delay.
    assert handles[1].latency_s > waves[0].makespan
    assert handles[2].latency_s > handles[1].latency_s


def test_reject_policy_applies_hard_backpressure(graphs):
    probe_service = _service(graphs, admission_budget_bytes=None)
    sources = _co_partition_sources(probe_service, 3)
    estimate = probe_service.submit(_lookup(sources[0])).estimated_bytes

    # The sources share a partition, so every lookup estimates the same.
    service = _service(
        graphs, admission_budget_bytes=estimate, admission_policy="reject"
    )
    first = service.submit(_lookup(sources[0]))
    second = service.submit(_lookup(sources[1]))
    assert first.status is RequestStatus.QUEUED
    assert second.status is RequestStatus.REJECTED
    assert "retry" in second.reject_reason
    service.drain()
    # The served wave released its budget: new submissions are admitted.
    third = service.submit(_lookup(sources[2]))
    assert third.status is RequestStatus.QUEUED


def test_resident_partitions_discount_the_estimate(graphs):
    """Admission reuses the cache: resident partitions cost nothing."""
    graph = _graph_for(graphs, "bfs")
    system = ExpTMFilterSystem(
        graph, config=_transfer_bound_config(graph), cache_policy="frontier-aware"
    )
    service = GraphService(ServiceConfig(system="exptm-f"), system=system)
    cold = service.submit(QueryRequest(algorithm="pagerank", priority=Priority.BULK))
    service.drain()
    # After the analytical scan the adaptive cache holds hot partitions;
    # cache.reset() in the next wave does not run until it is served, so
    # estimate the same request again while the cache is warm.
    warm = service.submit(QueryRequest(algorithm="pagerank", priority=Priority.BULK))
    assert warm.estimated_bytes < cold.estimated_bytes


# ----------------------------------------------------------------------
# (4) lifecycle, validation and statistics
# ----------------------------------------------------------------------


def test_handle_lifecycle_submit_poll_result(graphs):
    service = _service(graphs)
    handle = service.submit(_lookup(deadline_s=10.0))
    assert handle.poll() is RequestStatus.QUEUED
    assert not handle.done
    assert handle.result(wait=False) is None
    result = handle.result()
    assert handle.poll() is RequestStatus.DONE
    assert handle.done
    assert result.converged
    assert handle.latency_s == result.extra["service_latency_s"]
    assert handle.deadline_met is True


def test_deadline_sla_accounting(graphs):
    service = _service(graphs)
    service.submit(_lookup(0, deadline_s=1e-12))  # unmeetable
    service.submit(_lookup(3, deadline_s=10.0))
    service.submit(_lookup(9))  # no SLA
    service.drain()
    stats = service.stats()
    assert stats.deadline_met == 1 and stats.deadline_missed == 1
    assert stats.deadline_attainment == pytest.approx(0.5)


def test_submit_validates_requests(graphs):
    service = _service(graphs)
    with pytest.raises(KeyError, match="unknown algorithm"):
        service.submit(QueryRequest(algorithm="triangles"))
    with pytest.raises(ValueError, match="takes no traversal source"):
        service.submit(QueryRequest(algorithm="pagerank", source=4))
    with pytest.raises(ValueError):  # out-of-range source
        service.submit(_lookup(10**9))
    with pytest.raises(ValueError, match="integer vertex id, got 1.5"):
        service.submit(_lookup(1.5))
    # A source-based request without a source gets the service default.
    handle = service.submit(QueryRequest(algorithm="bfs"))
    assert handle.request_id >= 0


@pytest.mark.parametrize(
    "field, kwargs",
    [
        ("label", {"label": 7}),
        ("label", {"label": b"tenant"}),
        ("deadline_s", {"deadline_s": float("nan")}),
        ("deadline_s", {"deadline_s": -1.0}),
    ],
)
def test_submit_rejects_malformed_request_fields(graphs, field, kwargs):
    # A NaN deadline would count every completion as an SLA miss; a
    # non-string label breaks label hashing on the cluster router.
    service = _service(graphs)
    with pytest.raises(ValueError, match=field):
        service.submit(_lookup(0, **kwargs))
    assert service.stats().submitted == 0


def test_sssp_requires_weighted_service_graph(graphs):
    graph = _graph_for(graphs, "bfs")  # unweighted
    service = GraphService(system=HyTGraphSystem(graph, config=HardwareConfig()))
    with pytest.raises(ValueError, match="weighted"):
        service.submit(QueryRequest(algorithm="sssp", source=0))


def test_cc_refused_on_directed_service_graph(graphs):
    """CC on an unsymmetrized graph would silently diverge from the
    evaluation grid (which symmetrizes for CC) — refuse it instead."""
    directed = GraphService(
        system=HyTGraphSystem(_graph_for(graphs, "bfs"), config=HardwareConfig())
    )
    with pytest.raises(ValueError, match="symmetric"):
        directed.submit(QueryRequest(algorithm="cc"))
    # On a symmetrized graph the same request serves fine.
    symmetric = GraphService(
        system=HyTGraphSystem(_graph_for(graphs, "cc"), config=HardwareConfig())
    )
    result = symmetric.run(QueryRequest(algorithm="cc"))
    assert result.converged


def test_synthetic_mixed_trace_shape(graphs):
    from repro.service import synthetic_mixed_trace

    graph = _graph_for(graphs, "bfs")
    trace = synthetic_mixed_trace(graph, point_lookups=3, analytical=2, seed=7)
    assert [request.priority for request in trace] == [Priority.BULK] * 2 + [
        Priority.INTERACTIVE
    ] * 3
    assert all(request.algorithm == "pagerank" for request in trace[:2])
    assert all(request.algorithm == "bfs" for request in trace[2:])
    with pytest.raises(ValueError, match="at least one request"):
        synthetic_mixed_trace(graph, 0, 0, seed=7)
    with pytest.raises(ValueError, match="non-negative"):
        synthetic_mixed_trace(graph, -1, 2, seed=7)


def test_service_stats_percentiles_and_rows(graphs):
    service, _ = _serve_mixed(graphs, "priority")
    stats = service.stats()
    assert stats.completed == 5
    p50 = stats.latency_percentile(Priority.INTERACTIVE, 50)
    p95 = stats.latency_percentile(Priority.INTERACTIVE, 95)
    assert 0.0 < p50 <= p95
    assert stats.latency_percentile(Priority.STANDARD, 95) == 0.0  # empty class
    rows = stats.class_rows()
    assert [row["class"] for row in rows] == ["interactive", "bulk"]
    payload = stats.as_dict()
    assert payload["completed"] == 5
    assert set(payload["latencies_by_class"]) == {"interactive", "bulk"}
    assert stats.queries_per_second > 0


def test_service_config_validation():
    with pytest.raises(ValueError, match="unknown system"):
        ServiceConfig(system="gunrock")
    with pytest.raises(ValueError, match="scheduling"):
        ServiceConfig(scheduling="round-robin")
    with pytest.raises(ValueError, match="admission"):
        ServiceConfig(admission_policy="drop")
    with pytest.raises(ValueError, match="non-negative"):
        ServiceConfig(admission_budget_bytes=-1)


@pytest.mark.parametrize(
    "config_class", [HardwareConfig, ServiceConfig, ClusterConfig], ids=lambda cls: cls.__name__
)
def test_every_config_field_is_read(config_class):
    """A config field nothing reads is a knob that silently does nothing.

    Every field must be read as an attribute somewhere in ``src/`` other
    than the class's own ``__post_init__`` (validating a value is not
    using it).
    """
    import ast
    import dataclasses
    from pathlib import Path

    import repro

    read = set()
    for path in Path(repro.__file__).parent.rglob("*.py"):
        tree = ast.parse(path.read_text())
        validation = {
            id(node)
            for owner in ast.walk(tree)
            if isinstance(owner, ast.ClassDef) and owner.name == config_class.__name__
            for method in owner.body
            if isinstance(method, ast.FunctionDef) and method.name == "__post_init__"
            for node in ast.walk(method)
        }
        read.update(
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and id(node) not in validation
        )
    assert [field.name for field in dataclasses.fields(config_class) if field.name not in read] == []


def test_priority_parsing():
    assert Priority.parse("interactive") is Priority.INTERACTIVE
    assert Priority.parse("BULK") is Priority.BULK
    assert Priority.parse(1) is Priority.STANDARD
    assert Priority.parse(Priority.BULK) is Priority.BULK
    with pytest.raises(ValueError, match="unknown priority"):
        Priority.parse("urgent")
    assert Priority.INTERACTIVE < Priority.STANDARD < Priority.BULK


def test_service_builds_from_config():
    workload = build_workload("SK", "sssp", scale=0.05)
    service = GraphService(
        ServiceConfig(system="emogi"), graph=workload.graph, hardware=workload.config
    )
    assert service.system.name == "EMOGI"
    assert service.graph.is_weighted  # one graph serves every algorithm
    result = service.run(QueryRequest(algorithm="bfs", source=0))
    assert result.converged
    sssp = service.run(QueryRequest(algorithm="sssp", source=0))
    assert sssp.algorithm == "SSSP"


@pytest.mark.parametrize("cluster", [False, True], ids=["service", "cluster"])
@pytest.mark.parametrize("lone", ["graph", "hardware", None])
def test_graph_and_hardware_come_together(graphs, cluster, lone):
    config = ServiceConfig(system="hytgraph")
    prebuilt = {"graph": graphs["bfs"], "hardware": HardwareConfig()}
    passed = {} if lone is None else {lone: prebuilt[lone]}
    with pytest.raises(ValueError, match="graph= and hardware=.*build_workload"):
        if cluster:
            ClusterService(ClusterConfig(service=config), **passed)
        else:
            GraphService(config, **passed)


def test_multi_device_service_refuses_incapable_system():
    workload = build_workload("SK", "sssp", scale=0.05, num_devices=2)
    with pytest.raises(ValueError, match="multi-device"):
        GraphService(ServiceConfig(system="grus"), graph=workload.graph, hardware=workload.config)
