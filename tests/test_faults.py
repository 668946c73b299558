"""Fault injection and checkpoint/recovery tests.

The anchor is the chaos grid: fault kinds x algorithms x systems x
device counts, asserting that every query that survives a fault returns
values **bitwise identical** to a fault-free run — faults perturb time,
placement and residency, never vertex-program semantics.  CI sweeps the
grid under several fixed seeds via the ``REPRO_CHAOS_SEED`` environment
variable; with a fixed seed the injected fault sequence is fully
deterministic.

The bitwise cells use the exact fixed-point algorithms (bfs/sssp/cc):
their unique fixed point is reached bitwise no matter how a fault
reorders the asynchronous task schedule.  The rank-style programs
(pagerank/php) are *trajectory-dependent* under the asynchronous
runtime — a task processes activations produced by tasks scheduled
earlier in the same iteration, so re-sharding after a device loss
legitimately changes the accumulation order.  Those recover to the same
fixed point within convergence tolerance and get their own test.

Around the grid: unit tests of the spec grammar, the retry backoff, the
injector's determinism, the cache's fault-recovery surface, host
fallback, permanent failures, deadline cancellation and the service's
circuit breaker.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.algorithms import make_algorithm
from repro.faults import (
    MAX_ATTEMPTS,
    CircuitBreaker,
    FaultInjector,
    FaultKind,
    FaultSchedule,
    FaultSpec,
    QueryCheckpoint,
    backoff_seconds,
)
from repro.graph.generators import rmat_graph
from repro.runtime.batch import QueryBatchRunner
from repro.service import (
    GraphService,
    Priority,
    QueryFailed,
    QueryRequest,
    RequestStatus,
    ServiceConfig,
)
from repro.sim.config import HardwareConfig
from repro.systems.exptm_filter import ExpTMFilterSystem
from repro.systems.hytgraph import HyTGraphSystem
from repro.systems.subway import SubwaySystem

#: CI sweeps the chaos grid under several seeds; local runs use 0.
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))

GRID_SYSTEMS = [HyTGraphSystem, ExpTMFilterSystem, SubwaySystem]
GRID_ALGORITHMS = ["bfs", "sssp", "cc"]
GRID_DEVICES = [1, 2, 4]
GRID_FAULTS = [
    "device-loss@2:device=0",
    "transfer-flaky:p=0.1",
    "memory-pressure@1:factor=0.5",
]


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(1200, 9000, seed=5, weighted=True, name="rmat")


@pytest.fixture(scope="module")
def config(graph):
    # Transfer-bound: PCIe throttled far below kernel throughput, one
    # device holds half the edge data.
    return HardwareConfig(gpu_memory_bytes=graph.edge_data_bytes // 2, pcie_bandwidth=1e9)


def run_batch(system_cls, graph, config, algorithm, devices, faults=None, **run_kwargs):
    """One fresh-session batch, optionally under a fault schedule."""
    system = system_cls(graph, config.with_devices(devices))
    runner = QueryBatchRunner(system)
    program = make_algorithm(algorithm)
    sources = [0, 7, 19] if program.needs_source else [None] * 3
    queries = [(make_algorithm(algorithm), source) for source in sources]
    injector = None
    if faults is not None:
        injector = FaultInjector(FaultSchedule.parse(faults, seed=CHAOS_SEED))
    return runner.run(queries, injector=injector, **run_kwargs)


# ----------------------------------------------------------------------
# The chaos grid (bitwise acceptance)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("devices", GRID_DEVICES)
@pytest.mark.parametrize("system_cls", GRID_SYSTEMS)
@pytest.mark.parametrize("algorithm", GRID_ALGORITHMS)
@pytest.mark.parametrize("faults", GRID_FAULTS)
def test_chaos_grid_recovers_bitwise(faults, algorithm, system_cls, devices, graph, config):
    clean = run_batch(system_cls, graph, config, algorithm, devices)
    faulted = run_batch(system_cls, graph, config, algorithm, devices, faults=faults)
    for reference, recovered in zip(clean.results, faulted.results):
        if recovered.extra.get("fault_status") == "failed":
            # A transfer fault that exhausted the retry policy is a
            # typed terminal failure, not a recovery path.
            assert recovered.values is None
            continue
        assert recovered.converged == reference.converged
        assert np.array_equal(
            np.asarray(reference.values), np.asarray(recovered.values)
        )


@pytest.mark.parametrize("algorithm", ["pagerank", "php"])
def test_rank_style_recovery_converges_close(algorithm, graph, config):
    # The asynchronous runtime lets a task process activations produced
    # by tasks scheduled earlier in the same iteration, so re-sharding
    # after a device loss reorders the floating-point accumulation.  The
    # recovered query must still converge, to the same fixed point
    # within convergence tolerance.
    clean = run_batch(HyTGraphSystem, graph, config, algorithm, 2)
    faulted = run_batch(
        HyTGraphSystem, graph, config, algorithm, 2, faults="device-loss@2:device=0"
    )
    for reference, recovered in zip(clean.results, faulted.results):
        assert recovered.converged
        reference_values = np.asarray(reference.values)
        recovered_values = np.asarray(recovered.values)
        scale = np.abs(reference_values).max()
        assert np.abs(recovered_values - reference_values).max() <= 1e-2 * scale


def test_device_loss_grid_actually_injects(graph, config):
    # Meta-check on the grid: the device-loss cell is not vacuously
    # passing — the fault fires and the recovery machinery runs.
    faulted = run_batch(
        HyTGraphSystem,
        graph,
        config,
        "sssp",
        2,
        faults="device-loss@3:device=0",
        checkpoint_interval=2,
    )
    assert faulted.faults_injected >= 1
    assert faulted.recovery_time_s > 0.0
    assert faulted.checkpoint_time_s > 0.0
    # The loss lands one super-iteration past the last (interval-2)
    # checkpoint, so exactly that iteration is replayed per query.
    assert faulted.recovered_super_iterations >= 1
    assert faulted.extra["lost_devices"] == [0]
    clean = run_batch(HyTGraphSystem, graph, config, "sssp", 2)
    for reference, recovered in zip(clean.results, faulted.results):
        assert np.array_equal(np.asarray(reference.values), np.asarray(recovered.values))


# ----------------------------------------------------------------------
# Spec grammar and validation
# ----------------------------------------------------------------------


class TestFaultSpec:
    def test_parse_full_grammar(self):
        schedule = FaultSchedule.parse(
            "device-loss@3:device=1; transfer-flaky:p=0.05;"
            "memory-pressure@2:factor=0.5;interconnect-degrade:factor=4",
            seed=7,
        )
        kinds = [spec.kind for spec in schedule.specs]
        assert kinds == [
            FaultKind.DEVICE_LOSS,
            FaultKind.TRANSFER_FLAKY,
            FaultKind.MEMORY_PRESSURE,
            FaultKind.INTERCONNECT_DEGRADE,
        ]
        assert schedule.specs[0].at_super_iteration == 3
        assert schedule.specs[0].device == 1
        assert schedule.specs[1].probability == 0.05
        assert schedule.specs[2].factor == 0.5
        assert schedule.specs[3].factor == 4.0
        assert schedule.seed == 7

    def test_parse_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSchedule.parse("gpu-meltdown:p=1")

    def test_parse_names_the_bad_entry(self):
        with pytest.raises(ValueError, match="transfer-flaky@x"):
            FaultSchedule.parse("device-loss;transfer-flaky@x:p=0.1")
        with pytest.raises(ValueError, match="expected"):
            FaultSchedule.parse("device-loss:p=0.5")

    @pytest.mark.parametrize(
        "entry, cause",
        [
            ("device-loss@-1", "at_super_iteration must be non-negative"),
            ("device-loss:device=-2", "device must be non-negative"),
            ("transfer-flaky", "needs a probability"),
            ("memory-pressure:factor=2", "needs a factor in"),
            ("host-loss:host=-1", "host must be non-negative"),
            ("interconnect-degrade:factor=inf", "needs a finite factor >= 1"),
            ("interconnect-degrade:factor=nan", "needs a finite factor >= 1"),
        ],
    )
    def test_parse_names_the_entry_a_spec_rejects(self, entry, cause):
        # A value that parses but fails FaultSpec validation is reported
        # like the parser's own errors: the entry first, then the cause.
        with pytest.raises(ValueError) as raised:
            FaultSchedule.parse("device-loss@1;%s" % entry)
        assert str(raised.value).startswith("bad fault entry %r: " % entry)
        assert cause in str(raised.value)

    @pytest.mark.parametrize(
        "entry, field",
        [
            ("transfer-flaky:p=0.1,p=0.2", "probability"),
            ("transfer-flaky:p=0.1,probability=0.2", "probability"),
            ("transfer-flaky:probability=0.1,P=0.1", "probability"),
            ("device-loss:device=0,device=1", "device"),
            ("interconnect-degrade:factor=2,factor=4", "factor"),
        ],
    )
    def test_parse_rejects_a_repeated_key(self, entry, field):
        # The last value used to win silently, whichever spelling it used.
        with pytest.raises(ValueError) as raised:
            FaultSchedule.parse("device-loss@1;%s" % entry)
        assert str(raised.value) == "bad fault entry %r: %s given twice" % (entry, field)

    def test_parse_rejects_empty(self):
        with pytest.raises(ValueError, match="empty fault schedule"):
            FaultSchedule.parse(" ; ")

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="probability p in"):
            FaultSpec(FaultKind.TRANSFER_FLAKY, probability=1.5)
        with pytest.raises(ValueError, match="probability p in"):
            FaultSpec(FaultKind.TRANSFER_FLAKY)
        with pytest.raises(ValueError, match="factor in"):
            FaultSpec(FaultKind.MEMORY_PRESSURE, factor=0.0)
        with pytest.raises(ValueError, match="factor >= 1"):
            FaultSpec(FaultKind.INTERCONNECT_DEGRADE, factor=0.5)
        with pytest.raises(ValueError, match="only to device-loss"):
            FaultSpec(FaultKind.MEMORY_PRESSURE, device=0, factor=0.5)
        with pytest.raises(ValueError, match="non-negative"):
            FaultSpec(FaultKind.DEVICE_LOSS, at_super_iteration=-1)

    def test_parse_host_loss(self):
        schedule = FaultSchedule.parse("host-loss@4:host=1")
        spec = schedule.specs[0]
        assert spec.kind is FaultKind.HOST_LOSS
        assert spec.at_super_iteration == 4
        assert spec.host == 1
        # The host is optional (the cluster defaults to the last alive).
        assert FaultSchedule.parse("host-loss@2").specs[0].host is None

    def test_host_key_only_for_host_loss(self):
        with pytest.raises(ValueError, match="only to host-loss"):
            FaultSpec(FaultKind.DEVICE_LOSS, host=0)
        with pytest.raises(ValueError, match="non-negative"):
            FaultSpec(FaultKind.HOST_LOSS, host=-1)
        with pytest.raises(ValueError, match="expected host"):
            FaultSchedule.parse("host-loss@1:device=0")

    def test_schedule_splits_cluster_and_host_faults(self):
        schedule = FaultSchedule.parse(
            "host-loss@1:host=0;device-loss@2:device=0;transfer-flaky:p=0.1", seed=3
        )
        cluster_side = schedule.host_loss_specs()
        assert [spec.kind for spec in cluster_side] == [FaultKind.HOST_LOSS]
        remainder = schedule.without_host_loss()
        assert [spec.kind for spec in remainder.specs] == [
            FaultKind.DEVICE_LOSS, FaultKind.TRANSFER_FLAKY,
        ]
        assert remainder.seed == 3
        pure_cluster = FaultSchedule.parse("host-loss@1:host=0")
        assert pure_cluster.without_host_loss() is None

    def test_backoff_is_a_doubling_series_from_ten_microseconds(self):
        # The i-th retry waits 1e-5 * 2**i s: the waits sum to 1e-5 * (2**n - 1).
        assert MAX_ATTEMPTS == 4
        for failed in range(MAX_ATTEMPTS + 1):
            expected = 1e-5 * (2**failed - 1)
            assert backoff_seconds(failed) == pytest.approx(expected, rel=1e-12, abs=0)


# ----------------------------------------------------------------------
# Injector determinism
# ----------------------------------------------------------------------


def test_same_seed_injects_identical_fault_sequences(graph, config):
    runs = [
        run_batch(HyTGraphSystem, graph, config, "sssp", 2, faults="transfer-flaky:p=0.3")
        for _ in range(2)
    ]
    first, second = runs
    assert first.extra["fault_events"] == second.extra["fault_events"]
    assert first.makespan == second.makespan
    assert first.retries == second.retries
    assert first.retry_time_s == second.retry_time_s


# ----------------------------------------------------------------------
# Device loss, resharding, host fallback
# ----------------------------------------------------------------------


def test_device_loss_reshards_onto_survivors(graph, config):
    system = HyTGraphSystem(graph, config.with_devices(4))
    context = system.context
    cache = context.cache
    assert context.num_devices == 4
    context.lose_device(1)
    assert context.num_devices == 3
    assert context.lost_devices == [1]
    assert context.sharding.num_devices == 3
    # The cache was re-sharded in place: same object, new device maps.
    assert cache is context.cache
    assert cache.num_devices == 3
    assert len(cache.budget_bytes) == 3
    assert set(np.unique(cache.sharding.device_of)) <= {0, 1, 2}
    assert cache.invalidated_bytes > 0
    with pytest.raises(ValueError, match="outside"):
        context.lose_device(3)


def test_interconnect_slowdown_survives_device_loss(graph, config):
    context = HyTGraphSystem(graph, config.with_devices(4)).context
    latency = context.config.interconnect_latency
    context.degrade_interconnect(3.0)
    assert context.sync_duration([0, 0, 0, 0]) == 3.0 * latency
    context.lose_device(0)
    # Re-sharding keeps the degradation: the link did not heal.
    assert context.interconnect_slowdown == 3.0
    assert context.sync_duration([0, 0, 0]) == 3.0 * latency
    timeline = context.schedule(context.empty_device_lists(), [0, 0, 0])
    assert timeline.sync_time == 3.0 * latency
    context.lose_device(0)
    context.lose_device(0)
    # One device left synchronises nothing, however slow the link.
    assert context.sync_duration([0]) == 0.0


def test_losing_last_device_degrades_to_host(graph, config):
    system = HyTGraphSystem(graph, config.with_devices(1))
    context = system.context
    context.lose_device(0)
    assert context.host_fallback
    assert context.time_scale > 1.0
    with pytest.raises(RuntimeError, match="already runs on the host"):
        context.lose_device(0)
    clean = run_batch(HyTGraphSystem, graph, config, "sssp", 1)
    fallen = run_batch(HyTGraphSystem, graph, config, "sssp", 1, faults="device-loss@1")
    for reference, recovered in zip(clean.results, fallen.results):
        assert np.array_equal(np.asarray(reference.values), np.asarray(recovered.values))
    assert fallen.extra["host_fallback"]
    assert fallen.makespan > clean.makespan


def test_interconnect_degradation_slows_sync(graph, config):
    clean = run_batch(HyTGraphSystem, graph, config, "sssp", 2)
    degraded = run_batch(
        HyTGraphSystem, graph, config, "sssp", 2, faults="interconnect-degrade@0:factor=8"
    )
    for reference, recovered in zip(clean.results, degraded.results):
        assert np.array_equal(np.asarray(reference.values), np.asarray(recovered.values))
    assert degraded.makespan > clean.makespan


# ----------------------------------------------------------------------
# Cache fault-recovery surface
# ----------------------------------------------------------------------


def test_cache_shrink_budget_evicts_down(graph, config):
    system = HyTGraphSystem(graph, config.with_devices(2))
    cache = system.context.cache
    original = cache.per_device_budget
    before = cache.resident_bytes
    assert before > 0
    cache.shrink_budget(0.5)
    assert cache.per_device_budget == original // 2
    for device in range(cache.num_devices):
        assert cache.used_bytes[device] <= cache.budget_bytes[device]
    assert cache.resident_bytes < before
    with pytest.raises(ValueError, match="in \\[0, 1\\]"):
        cache.shrink_budget(1.5)


def test_cache_invalidate_counts_separately(graph, config):
    system = HyTGraphSystem(graph, config.with_devices(2))
    cache = system.context.cache
    resident = cache.resident_bytes
    evictions_before = cache.counters()["evictions"]
    cache.invalidate()
    assert cache.resident_bytes == 0
    assert cache.invalidated_bytes == resident
    # Fault-driven invalidation is not billed as policy evictions.
    assert cache.counters()["evictions"] == evictions_before


# ----------------------------------------------------------------------
# Permanent failures, deadlines, the breaker, the service surface
# ----------------------------------------------------------------------


def test_exhausted_retries_fail_the_query_typed(graph, config):
    faulted = run_batch(
        HyTGraphSystem, graph, config, "sssp", 2, faults="transfer-flaky:p=1.0"
    )
    assert faulted.failed_queries == faulted.num_queries
    for result in faulted.results:
        assert result.extra["fault_status"] == "failed"
        assert result.extra["fault_attempts"] == MAX_ATTEMPTS
        assert "persisted" in result.extra["fault_cause"]
        assert result.values is None
        assert not result.converged


def test_deadline_cancellation_is_typed(graph, config):
    clean = run_batch(HyTGraphSystem, graph, config, "sssp", 1)
    generous = clean.makespan * 10
    unbounded = run_batch(
        HyTGraphSystem, graph, config, "sssp", 1, deadlines=[generous, None, None]
    )
    assert all(result.converged for result in unbounded.results)
    cancelled = run_batch(
        HyTGraphSystem, graph, config, "sssp", 1, deadlines=[1e-12, None, None]
    )
    assert cancelled.results[0].extra["fault_status"] == "cancelled"
    assert "deadline" in cancelled.results[0].extra["fault_cause"]
    assert cancelled.cancelled_queries == 1
    assert cancelled.results[1].converged and cancelled.results[2].converged


def test_circuit_breaker_state_machine():
    breaker = CircuitBreaker()
    breaker.record(1)
    breaker.record(3)
    breaker.record(0)  # a clean wave restarts the faulty streak
    breaker.record(1)
    breaker.record(1)
    assert not breaker.open
    breaker.record(2)
    assert breaker.open
    assert breaker.trips == 1
    breaker.record(0)
    assert not breaker.open


def make_service(graph, config, devices=2, **overrides):
    system = HyTGraphSystem(graph, config.with_devices(devices))
    service_config = ServiceConfig(system="hytgraph", **overrides)
    return GraphService(service_config, system=system)


def test_service_surfaces_query_failed(graph, config):
    service = make_service(graph, config, faults="transfer-flaky:p=1.0")
    handle = service.submit(QueryRequest("sssp", source=0))
    service.drain()
    assert handle.status is RequestStatus.FAILED
    assert handle.done
    with pytest.raises(QueryFailed, match="persisted") as excinfo:
        handle.result()
    assert excinfo.value.attempts == MAX_ATTEMPTS
    stats = service.stats()
    assert stats.failed == 1
    assert not stats.breaker_open  # one faulty wave is below the threshold
    assert stats.faults_injected >= 1


def test_breaker_opens_after_three_faulty_waves_and_closes_after_one_clean(graph, config):
    service = make_service(graph, config, faults="transfer-flaky:p=1.0")
    opened = []
    for source in (0, 7, 19):
        service.submit(QueryRequest("sssp", source=source))
        (batch,) = service.drain()
        assert batch.faults_injected > 0
        opened.append(service.breaker.open)
    assert opened == [False, False, True]
    assert service.stats().breaker_trips == 1
    # A query from a sink ships no edge data, so its wave draws no fault.
    sink = int(np.flatnonzero(graph.out_degrees == 0)[0])
    service.submit(QueryRequest("sssp", source=sink))
    (batch,) = service.drain()
    assert batch.faults_injected == 0
    assert not service.breaker.open
    assert service.stats().breaker_trips == 1


def test_open_breaker_sheds_queued_bulk_work(graph, config):
    service = make_service(graph, config, faults="transfer-flaky:p=1.0")
    for source in (0, 7, 19):
        service.submit(QueryRequest("sssp", source=source))
        service.drain()
    assert service.breaker.open
    bulk = service.submit(QueryRequest("sssp", source=7, priority=Priority.BULK))
    interactive = service.submit(
        QueryRequest("bfs", source=3, priority=Priority.INTERACTIVE)
    )
    service.drain()
    assert bulk.status is RequestStatus.FAILED
    assert "circuit breaker open" in bulk.fault_cause
    with pytest.raises(QueryFailed, match="circuit breaker"):
        bulk.result()
    # The cheaper classes are still served (they may fail on the p=1.0
    # faults, but they are never shed by the breaker).
    assert interactive.status is not RequestStatus.QUEUED
    assert "circuit breaker" not in (interactive.fault_cause or "")


def test_service_deadline_enforcement_cancels(graph, config):
    service = make_service(
        graph, config, deadline_s=1e-12, enforce_deadlines=True
    )
    handle = service.submit(QueryRequest("sssp", source=0))
    service.drain()
    assert handle.status is RequestStatus.CANCELLED
    with pytest.raises(QueryFailed, match="cancelled"):
        handle.result()
    stats = service.stats()
    assert stats.cancelled == 1
    assert stats.deadline_missed == 1


def test_service_recovers_device_loss_bitwise(graph, config):
    reference = make_service(graph, config)
    faulted = make_service(
        graph, config, faults="device-loss@2:device=1", chaos_seed=CHAOS_SEED
    )
    sources = [0, 7, 19]
    clean_handles = [reference.submit(QueryRequest("sssp", source=s)) for s in sources]
    fault_handles = [faulted.submit(QueryRequest("sssp", source=s)) for s in sources]
    reference.drain()
    faulted.drain()
    for clean_handle, fault_handle in zip(clean_handles, fault_handles):
        assert np.array_equal(
            np.asarray(clean_handle.result().values),
            np.asarray(fault_handle.result().values),
        )
    health = faulted.device_health()
    assert health["configured"] == 2
    assert health["alive"] == 1
    assert health["lost"] == [1]
    assert not health["host_fallback"]


def test_service_config_validation():
    with pytest.raises(ValueError, match="deadline_s must be positive"):
        ServiceConfig(deadline_s=0.0)
    with pytest.raises(ValueError, match="deadline_s must be positive"):
        ServiceConfig(deadline_s=-1.0)
    with pytest.raises(ValueError, match="admission_budget_bytes"):
        ServiceConfig(admission_budget_bytes=-1)
    with pytest.raises(ValueError, match="unknown scheduling policy"):
        ServiceConfig(scheduling="round-robin")
    with pytest.raises(ValueError, match="unknown admission policy"):
        ServiceConfig(admission_policy="drop")
    with pytest.raises(ValueError, match="unknown cache policy"):
        ServiceConfig(cache_policy="mru")
    with pytest.raises(ValueError, match="unknown fault kind"):
        ServiceConfig(faults="explosion:p=1")
    parsed = ServiceConfig(faults="device-loss@1", chaos_seed=9)
    assert isinstance(parsed.faults, FaultSchedule)
    assert parsed.faults.seed == 9


# ----------------------------------------------------------------------
# Checkpoint roundtrip (the property-based version lives in
# test_property_based.py; this is the directed one)
# ----------------------------------------------------------------------


def test_checkpoint_restore_is_bitwise(graph, config):
    system = HyTGraphSystem(graph, config.with_devices(2))
    session = system.start_session(make_algorithm("sssp"), 0)
    driver = system.driver
    for _ in range(2):
        system.context.begin_window()
        [plan] = driver.plan(system, [session])
        session.result.iterations.append(driver.finish(plan))
        session.iteration += 1
    checkpoint = QueryCheckpoint.capture(session)
    snapshot = {key: value.copy() for key, value in session.state.arrays.items()}
    pending_snapshot = session.pending.copy()
    records = len(session.result.iterations)
    # Run further, then roll back.
    for _ in range(2):
        system.context.begin_window()
        [plan] = driver.plan(system, [session])
        session.result.iterations.append(driver.finish(plan))
        session.iteration += 1
    cost = checkpoint.restore(session, config=system.context.config)
    assert cost > 0.0
    assert session.iteration == checkpoint.iteration
    assert len(session.result.iterations) == records
    assert np.array_equal(session.pending, pending_snapshot)
    for key, value in snapshot.items():
        assert np.array_equal(session.state.arrays[key], value)
    # The checkpoint survives its restore and can be reused.
    assert isinstance(checkpoint, QueryCheckpoint)
    assert checkpoint.checkpoint_bytes > 0


# ----------------------------------------------------------------------
# Host loss (the cluster-level cell of the chaos grid)
# ----------------------------------------------------------------------


def test_single_host_injector_skips_host_loss(graph, config):
    # A lone GraphService cannot lose "a host"; the injector records the
    # spec as skipped instead of misfiring it, and serving is unchanged.
    faulted = run_batch(
        HyTGraphSystem, graph, config, "sssp", 2, faults="host-loss@1:host=0"
    )
    clean = run_batch(HyTGraphSystem, graph, config, "sssp", 2)
    assert faulted.faults_injected == 0
    for reference, result in zip(clean.results, faulted.results):
        assert np.array_equal(np.asarray(reference.values), np.asarray(result.values))


@pytest.mark.parametrize("algorithm", GRID_ALGORITHMS)
def test_cluster_host_loss_grid_recovers_bitwise(algorithm, graph, config):
    # The host-loss cell runs at the cluster layer: a two-host cluster
    # loses host 1 mid-backlog and the migrated queries must complete
    # bitwise equal to a fault-free single host, under every chaos seed.
    from repro.cluster import ClusterConfig, ClusterService

    source = 0 if make_algorithm(algorithm).needs_source else None
    served = graph if algorithm != "cc" else graph.symmetrize()
    hardware = HardwareConfig(
        gpu_memory_bytes=served.edge_data_bytes // 2, pcie_bandwidth=1e9
    )
    requests = [
        QueryRequest(algorithm=algorithm, source=source, label="s%d" % index)
        for index in range(6)
    ]
    reference = GraphService(
        ServiceConfig(system="hytgraph"), graph=served, hardware=hardware
    )
    expected = [reference.run(request) for request in requests]

    probe = GraphService(
        ServiceConfig(system="hytgraph"), graph=served, hardware=hardware
    )
    estimate = probe.admission.estimate_request_bytes(*probe.submit(requests[0])._query)
    cluster = ClusterService(
        ClusterConfig(
            hosts=2,
            service=ServiceConfig(
                system="hytgraph",
                admission_budget_bytes=int(estimate * 1.5),
                faults="host-loss@1:host=1",
                chaos_seed=CHAOS_SEED,
            ),
        ),
        graph=served,
        hardware=hardware,
    )
    handles = cluster.submit_many(requests)
    cluster.drain()
    assert cluster.alive_hosts() == [0]
    assert cluster.router.failovers > 0
    for handle, reference_result in zip(handles, expected):
        assert handle.status is RequestStatus.DONE
        assert np.array_equal(
            np.asarray(handle.result().values), np.asarray(reference_result.values)
        )
