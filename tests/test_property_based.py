"""Property-based tests (hypothesis) on core data structures and invariants."""

import copy

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms import make_algorithm, reference
from repro.algorithms.sssp import SSSP
from repro.faults import QueryCheckpoint
from repro.core.cost_model import CostModel
from repro.core.selection import EngineSelector
from repro.graph.csr import CSRGraph
from repro.graph.frontier import Frontier
from repro.graph.generators import rmat_graph
from repro.graph.partition import partition_by_bytes, partition_by_count
from repro.graph.reorder import hub_sort, hub_sort_order
from repro.runtime.context import ExecutionContext
from repro.service import Priority, ServiceStats
from repro.service.stats import ClassTally
from repro.sim.config import HardwareConfig
from repro.sim.pcie import PCIeModel
from repro.sim.streams import StreamScheduler, StreamTask

from tests.conftest import assert_distances_equal

COMMON_SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def edge_lists(draw, max_vertices=40, max_edges=200):
    """Random (num_vertices, edges, weights) triples."""
    num_vertices = draw(st.integers(min_value=1, max_value=max_vertices))
    num_edges = draw(st.integers(min_value=0, max_value=max_edges))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=num_vertices - 1),
                st.integers(min_value=0, max_value=num_vertices - 1),
            ),
            min_size=num_edges,
            max_size=num_edges,
        )
    )
    weights = draw(
        st.lists(
            st.integers(min_value=1, max_value=16),
            min_size=len(edges),
            max_size=len(edges),
        )
    )
    return num_vertices, edges, [float(w) for w in weights]


@COMMON_SETTINGS
@given(edge_lists())
def test_csr_from_edges_invariants(data):
    num_vertices, edges, weights = data
    graph = CSRGraph.from_edges(edges, num_vertices=num_vertices, weights=weights)
    # Row offsets are monotone, cover all edges, and degrees sum to |E|.
    assert graph.row_offset[0] == 0
    assert graph.row_offset[-1] == graph.num_edges == len(edges)
    assert np.all(np.diff(graph.row_offset) >= 0)
    assert graph.out_degrees.sum() == graph.num_edges
    assert graph.in_degrees.sum() == graph.num_edges
    # Every (src, dst) pair survives with its multiplicity.
    rebuilt = sorted((src, dst) for src, dst, _ in graph.iter_edges())
    assert rebuilt == sorted((int(s), int(d)) for s, d in edges)


def reference_csr(num_vertices, edges, weights, deduplicate):
    """Reference builder: first-occurrence dedup, then a stable (src, dst) lexsort."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    keep = np.arange(len(edges))
    if deduplicate:
        first_seen = {}
        for position, pair in enumerate(map(tuple, edges.tolist())):
            first_seen.setdefault(pair, position)
        keep = np.array(sorted(first_seen.values()), dtype=np.int64)
    edges = edges[keep]
    order = np.lexsort((edges[:, 1], edges[:, 0]))
    counts = np.bincount(edges[:, 0], minlength=num_vertices)
    values = None if weights is None else np.asarray(weights, dtype=np.float64)[keep][order]
    return np.concatenate([[0], np.cumsum(counts)]), edges[order, 1], values


@COMMON_SETTINGS
@given(edge_lists(), st.booleans(), st.booleans(), st.integers(min_value=0, max_value=5))
def test_from_edges_matches_lexsort_reference(data, weighted, deduplicate, isolated_tail):
    num_vertices, edges, weights = data
    num_vertices += isolated_tail  # trailing vertices with no edge at all
    weights = weights if weighted else None
    graph = CSRGraph.from_edges(
        edges, num_vertices=num_vertices, weights=weights, deduplicate=deduplicate
    )
    row_offset, column_index, edge_value = reference_csr(num_vertices, edges, weights, deduplicate)
    np.testing.assert_array_equal(graph.row_offset, row_offset)
    np.testing.assert_array_equal(graph.column_index, column_index)
    assert graph.column_index.flags.c_contiguous
    if weighted:
        np.testing.assert_array_equal(graph.edge_value, edge_value)
    else:
        assert graph.edge_value is None


@COMMON_SETTINGS
@given(edge_lists())
def test_reverse_is_involution(data):
    num_vertices, edges, _ = data
    graph = CSRGraph.from_edges(edges, num_vertices=num_vertices)
    double_reversed = graph.reverse().reverse()
    np.testing.assert_array_equal(double_reversed.row_offset, graph.row_offset)
    np.testing.assert_array_equal(double_reversed.column_index, graph.column_index)


@COMMON_SETTINGS
@given(edge_lists(), st.integers(min_value=1, max_value=10))
def test_partitioning_tiles_any_graph(data, num_partitions):
    num_vertices, edges, _ = data
    graph = CSRGraph.from_edges(edges, num_vertices=num_vertices)
    partitioning = partition_by_count(graph, num_partitions)
    assert partitioning.edges_per_partition().sum() == graph.num_edges
    covered_vertices = sum(p.num_vertices for p in partitioning)
    assert covered_vertices == graph.num_vertices
    # Every vertex maps to the partition that contains it.
    for vertex in range(graph.num_vertices):
        partition = partitioning[partitioning.partition_of_vertex(vertex)]
        assert partition.vertex_start <= vertex < partition.vertex_end


@COMMON_SETTINGS
@given(edge_lists(), st.integers(min_value=64, max_value=4096))
def test_partition_by_bytes_tiles_any_graph(data, budget):
    num_vertices, edges, weights = data
    graph = CSRGraph.from_edges(edges, num_vertices=num_vertices, weights=weights)
    partitioning = partition_by_bytes(graph, budget)
    assert partitioning.bytes_per_partition().sum() == graph.edge_data_bytes


@COMMON_SETTINGS
@given(
    st.integers(min_value=1, max_value=60),
    st.lists(st.integers(min_value=0, max_value=59), max_size=30),
    st.lists(st.integers(min_value=0, max_value=59), max_size=30),
)
def test_frontier_matches_python_sets(num_vertices, first, second):
    first = [v for v in first if v < num_vertices]
    second = [v for v in second if v < num_vertices]
    left = Frontier(num_vertices, first)
    right = Frontier(num_vertices, second)
    assert set(left.union(right).active_vertices()) == set(first) | set(second)
    assert set(left.intersection(right).active_vertices()) == set(first) & set(second)
    assert set(left.difference(right).active_vertices()) == set(first) - set(second)
    assert left.count == len(set(first))


@COMMON_SETTINGS
@given(edge_lists(), st.floats(min_value=0.0, max_value=1.0))
def test_hub_sort_order_is_permutation(data, fraction):
    num_vertices, edges, _ = data
    graph = CSRGraph.from_edges(edges, num_vertices=num_vertices)
    order = hub_sort_order(graph, fraction)
    assert sorted(order.tolist()) == list(range(num_vertices))


@COMMON_SETTINGS
@given(edge_lists())
def test_hub_sorted_sssp_matches_reference(data):
    num_vertices, edges, weights = data
    graph = CSRGraph.from_edges(edges, num_vertices=num_vertices, weights=weights)
    reordered = hub_sort(graph, 0.1)
    source = 0
    internal = reordered.translate_to_new(source)
    # Run SSSP synchronously on the relabelled graph and map back.
    program = SSSP()
    state = program.create_state(reordered.graph, internal)
    pending = program.initial_frontier(reordered.graph, state, internal).mask.copy()
    for _ in range(10_000):
        active = np.nonzero(pending)[0]
        if active.size == 0:
            break
        pending[active] = False
        newly = program.process(reordered.graph, state, active)
        if newly.size:
            pending[newly] = True
    restored = reordered.values_in_original_order(program.vertex_result(state))
    assert_distances_equal(restored, reference.sssp_distances(graph, source))


@COMMON_SETTINGS
@given(
    st.lists(st.integers(min_value=0, max_value=512), min_size=1, max_size=64),
    st.integers(min_value=0, max_value=4096),
)
def test_zero_copy_requests_lower_bound(degrees, start):
    config = HardwareConfig()
    pcie = PCIeModel(config)
    degrees = np.array(degrees, dtype=np.int64)
    starts = np.full(degrees.size, start, dtype=np.int64)
    requests = pcie.requests_for_vertices(degrees, starts)
    minimum = np.ceil(degrees * config.vertex_value_bytes / config.pcie_request_bytes)
    assert np.all(requests >= minimum)
    # Misalignment adds at most one extra request per vertex.
    assert np.all(requests <= minimum + 1)


@COMMON_SETTINGS
@given(st.integers(min_value=0, max_value=1 << 24))
def test_explicit_copy_time_monotone(num_bytes):
    pcie = PCIeModel(HardwareConfig())
    smaller = pcie.explicit_copy_time(num_bytes)
    larger = pcie.explicit_copy_time(num_bytes + 4096)
    assert larger >= smaller


@COMMON_SETTINGS
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=2.0),
            st.floats(min_value=0.0, max_value=2.0),
            st.floats(min_value=0.0, max_value=2.0),
            st.booleans(),
        ),
        min_size=1,
        max_size=12,
    ),
    st.integers(min_value=1, max_value=6),
)
def test_stream_schedule_bounds(task_specs, num_streams):
    scheduler = StreamScheduler(HardwareConfig())
    tasks = [
        StreamTask("t%d" % index, "ExpTM-F", cpu_time=cpu, transfer_time=transfer, kernel_time=kernel,
                   overlapped_transfer=overlapped)
        for index, (cpu, transfer, kernel, overlapped) in enumerate(task_specs)
    ]
    timeline = scheduler.schedule(tasks, num_streams=num_streams)
    serial = scheduler.serial_time(tasks)
    longest_task = max(task.serial_time for task in tasks)
    assert timeline.makespan <= serial + 1e-9
    assert timeline.makespan >= longest_task - 1e-9
    # Resource busy time is conserved regardless of the schedule.
    assert timeline.busy_time("cpu") == pytest.approx(sum(t.cpu_time for t in tasks))


@COMMON_SETTINGS
@given(edge_lists())
def test_cost_model_non_negative_and_selection_total(data):
    num_vertices, edges, weights = data
    graph = CSRGraph.from_edges(edges, num_vertices=num_vertices, weights=weights)
    partitioning = partition_by_count(graph, 4)
    if partitioning.num_partitions == 0:
        return
    model = CostModel(graph, partitioning, HardwareConfig())
    mask = np.zeros(num_vertices, dtype=bool)
    mask[::2] = True
    costs = model.estimate(mask)
    assert np.all(costs.filter_cost >= 0)
    assert np.all(costs.compaction_cost >= 0)
    assert np.all(costs.zero_copy_cost >= 0)
    selection = EngineSelector().select(costs)
    # Every partition with active edges gets exactly one engine.
    active = costs.active_partitions()
    assert all(selection.choices[index] is not None for index in active)
    assert sum(selection.counts().values()) == active.size


ALGORITHM_NAMES = ["bfs", "sssp", "cc", "pagerank", "php"]


@COMMON_SETTINGS
@given(edge_lists(), st.sampled_from(ALGORITHM_NAMES), st.integers(min_value=0, max_value=3))
def test_checkpoint_restore_roundtrip_bitwise(data, algorithm, steps):
    """capture → diverge/corrupt → restore is a bitwise roundtrip.

    Holds for every algorithm's state layout on arbitrary graphs: the
    checkpoint owns copies of the session arrays, so nothing the session
    does afterwards — more iterations, outright corruption — leaks into
    what restore brings back.
    """
    from repro.systems.hytgraph import HyTGraphSystem

    num_vertices, edges, weights = data
    graph = CSRGraph.from_edges(edges, num_vertices=num_vertices, weights=weights)
    system = HyTGraphSystem(graph, HardwareConfig())
    program = make_algorithm(algorithm)
    source = 0 if program.needs_source else None
    session = system.start_session(program, source)
    driver = system.driver
    for _ in range(steps):
        if not session.pending.any():
            break
        system.context.begin_window()
        plan = driver.plan(system, session)
        session.result.iterations.append(driver.finish(plan))
        session.iteration += 1

    checkpoint = driver.capture_checkpoint(session)
    assert isinstance(checkpoint, QueryCheckpoint)
    assert checkpoint.checkpoint_bytes > 0
    arrays = {key: value.copy() for key, value in session.state.arrays.items()}
    pending = session.pending.copy()
    iteration = session.iteration
    records = len(session.result.iterations)

    # Diverge: run further, then corrupt every array outright.
    for _ in range(2):
        if not session.pending.any():
            break
        system.context.begin_window()
        plan = driver.plan(system, session)
        session.result.iterations.append(driver.finish(plan))
        session.iteration += 1
    for value in session.state.arrays.values():
        if value.dtype == bool:
            value[:] = ~value
        elif value.size:
            value[:] = value[::-1].copy()
    session.pending[:] = ~session.pending

    cost = driver.restore_checkpoint(session, checkpoint)
    assert cost >= 0.0
    assert session.iteration == iteration
    assert len(session.result.iterations) == records
    np.testing.assert_array_equal(session.pending, pending)
    assert session.state.arrays.keys() == arrays.keys()
    for key, value in arrays.items():
        restored = session.state.arrays[key]
        assert restored.dtype == value.dtype
        np.testing.assert_array_equal(restored, value)

    # The checkpoint survives its own restore: a second rollback after
    # further divergence lands on the same bits.
    session.pending[:] = ~session.pending
    driver.restore_checkpoint(session, checkpoint)
    np.testing.assert_array_equal(session.pending, pending)


# ----------------------------------------------------------------------
# ServiceStats.merge is a commutative, associative fold
# ----------------------------------------------------------------------

# Dyadic latencies (k / 1024): float sums of them are exact, so even the
# time totals must agree bit for bit however the merges are grouped.
_dyadic = st.integers(min_value=0, max_value=1 << 16).map(lambda k: k / 1024.0)
_count = st.integers(min_value=0, max_value=50)


# ----------------------------------------------------------------------
# Transfer window: every requested byte is billed, amortized or a cache hit
# ----------------------------------------------------------------------

WINDOW_PARTITIONS = 8
_WINDOW_GRAPH = rmat_graph(300, 2500, seed=41, weighted=True)
_WINDOW_PARTITIONING = partition_by_count(_WINDOW_GRAPH, WINDOW_PARTITIONS)
#: (devices, cache policy); one static device is the cacheless session.
WINDOW_SESSIONS = {
    "no-cache": (1, "static-prefix"),
    "static-prefix": (2, "static-prefix"),
    "lru": (1, "lru"),
    "frontier-aware": (1, "frontier-aware"),
}

window_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("claim"),
            st.lists(
                st.integers(0, WINDOW_PARTITIONS - 1), min_size=1, max_size=4, unique=True
            ).map(sorted),
        ),
        st.tuples(
            st.just("observe"),
            st.lists(st.integers(0, 50), min_size=WINDOW_PARTITIONS, max_size=WINDOW_PARTITIONS),
        ),
        st.tuples(st.just("window"), st.none()),
    ),
    max_size=40,
)


@COMMON_SETTINGS
@given(st.sampled_from(sorted(WINDOW_SESSIONS)), window_ops)
def test_transfer_window_conserves_bytes(session, ops):
    devices, policy = WINDOW_SESSIONS[session]
    sizes = [partition.edge_bytes for partition in _WINDOW_PARTITIONING.partitions]
    context = ExecutionContext(
        _WINDOW_GRAPH,
        _WINDOW_PARTITIONING,
        # Room for about three partitions per device: adaptive policies evict.
        HardwareConfig(gpu_memory_bytes=3 * max(sizes)).with_devices(devices),
        cache_policy=policy,
    )
    cache = context.cache
    assert (cache is None) == (session == "no-cache")

    requested = billed = 0
    billed_this_window: set[int] = set()
    for op, argument in ops:
        if op == "window":
            context.begin_window()
            billed_this_window.clear()
        elif op == "observe":
            if cache is not None:
                cache.observe_frontier(np.array(argument, dtype=np.int64))
        else:
            billable = context.claim(argument)
            assert set(billable) <= set(argument)
            # A whole partition crosses PCIe at most once per window.
            assert billed_this_window.isdisjoint(billable)
            billed_this_window.update(billable)
            requested += sum(sizes[index] for index in argument)
            billed += sum(sizes[index] for index in billable)

    counters = cache.counters() if cache is not None else None
    hit_bytes = counters["hit_bytes"] if counters else 0
    assert billed + context.amortized_bytes + hit_bytes == requested
    if counters:
        # A miss is tallied exactly for what crosses PCIe now.
        assert counters["miss_bytes"] == billed


@st.composite
def class_tallies(draw):
    latencies = draw(st.lists(_dyadic, max_size=12))
    waits = draw(st.lists(_dyadic, min_size=len(latencies), max_size=len(latencies)))
    met = draw(st.integers(min_value=0, max_value=len(latencies)))
    return ClassTally(
        latencies=latencies, queue_waits=waits, sla_met=met,
        sla_missed=draw(st.integers(min_value=0, max_value=len(latencies) - met)),
        rejected=draw(_count), failed=draw(_count), cancelled=draw(_count),
        last_completion_s=draw(_dyadic),
    )


@st.composite
def service_stats(draw):
    return ServiceStats(
        submitted=draw(_count), queued=draw(_count), waves=draw(_count),
        preemptions=draw(_count), preempted_queries=draw(_count),
        makespan_s=draw(_dyadic), total_transfer_bytes=draw(_count),
        amortized_bytes=draw(_count), super_iterations=draw(_count),
        faults_injected=draw(_count), retries=draw(_count),
        retry_time_s=draw(_dyadic), checkpoint_time_s=draw(_dyadic),
        recovery_time_s=draw(_dyadic), breaker_open=draw(st.booleans()),
        breaker_trips=draw(_count),
        classes=draw(st.dictionaries(st.sampled_from(list(Priority)), class_tallies())),
    )


def _merged(*parts):
    total = ServiceStats()
    for part in parts:
        total.merge(part)
    return total


def _order_free(stats):
    payload = stats.as_dict()
    payload["latencies_by_class"] = {
        name: sorted(values) for name, values in payload["latencies_by_class"].items()
    }
    tallies = {
        priority: (tally.rejected, tally.failed, tally.cancelled, tally.last_completion_s)
        for priority, tally in sorted(stats.classes.items())
    }
    return payload, tallies


@COMMON_SETTINGS
@given(service_stats(), service_stats(), service_stats())
def test_service_stats_merge_is_associative_and_commutative(a, b, c):
    before = [copy.deepcopy(part) for part in (a, b, c)]
    flat = _merged(a, b, c)
    assert _order_free(_merged(c, a, b)) == _order_free(flat)
    assert _order_free(_merged(_merged(a, b), c)) == _order_free(flat)
    assert _order_free(_merged(a, _merged(b, c))) == _order_free(flat)
    # Merging reads its argument and leaves it alone; the empty record
    # is the identity.
    assert [a, b, c] == before
    assert _merged(a).as_dict() == a.as_dict()
    # Counters add, flags OR, the makespan is the latest clock.
    assert flat.submitted == a.submitted + b.submitted + c.submitted
    assert flat.completed == a.completed + b.completed + c.completed
    assert flat.deadline_missed == a.deadline_missed + b.deadline_missed + c.deadline_missed
    assert flat.breaker_open == (a.breaker_open or b.breaker_open or c.breaker_open)
    assert flat.makespan_s == max(a.makespan_s, b.makespan_s, c.makespan_s)
    # Class rows (percentiles, exact means, max) ignore sample order.
    for name, row in flat.rows().items():
        samples = sorted(
            value
            for part in (a, b, c)
            for value in part.class_latencies(name)
        )
        assert row["count"] == len(samples)
        assert row["max_s"] == samples[-1]
        assert row["p50_s"] == float(np.percentile(samples, 50))
