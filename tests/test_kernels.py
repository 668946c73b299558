"""Equivalence tests for the scatter-reduce kernel layer.

The kernel layer (:mod:`repro.core.kernels`) replaces the seed
``np.add.at`` / ``np.minimum.at`` + snapshot + ``np.unique`` code paths.
Its contract is *bitwise* equality, not approximate equality: every
kernel must produce exactly the state the unbuffered ufunc would, and the
fused ``push_and_activate`` must report exactly the activation set the
seed formulation computed.  These property-style tests check that
contract on seeded random inputs covering empty frontiers, self-loops,
duplicate destinations and both the dense and the sparse dispatch paths,
for the raw kernels, for every ported ``process()`` and for full engine
runs.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.backends as backend_registry
import repro.core.backends.numpy_backend as numpy_backend
from repro.algorithms.bfs import BFS
from repro.algorithms.cc import ConnectedComponents
from repro.algorithms.pagerank import DeltaPageRank
from repro.algorithms.php import PHP
from repro.algorithms.sssp import SSSP
from repro.core.kernels import (
    legacy_kernels,
    push_and_activate,
    scatter_add,
    scatter_max,
    scatter_min,
    using_legacy_kernels,
)
from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat_graph, uniform_random_graph
from repro.systems.hytgraph import HyTGraphSystem


def bits(array: np.ndarray) -> np.ndarray:
    """Reinterpret float64 values as uint64 so equality is bit-exact."""
    return np.asarray(array, dtype=np.float64).view(np.uint64)


def random_batches(seed: int, trials: int):
    """Seeded random (target, destinations, values) batches.

    Sizes straddle the dense/sparse boundary and include empty batches
    and heavy duplication (num_targets can be far smaller than the batch).
    """
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        num_targets = int(rng.integers(1, 300))
        num_messages = int(rng.integers(0, 3 * num_targets))
        destinations = rng.integers(0, num_targets, size=num_messages)
        values = rng.normal(size=num_messages) * 10.0 ** float(rng.integers(-3, 4))
        target = rng.normal(size=num_targets) * 10.0 ** float(rng.integers(-3, 4))
        yield target, destinations, values


@pytest.fixture(params=["native", "portable"])
def kernel_dispatch(request, monkeypatch):
    """Run each test under both kernel dispatch modes.

    ``native`` uses the indexed-ufunc fast paths of NumPy >= 1.25;
    ``portable`` forces the seeded-bincount / sort+reduceat fallbacks so
    the segment kernels are exercised regardless of the installed NumPy.
    Both modes live in the numpy reference backend; under a non-numpy
    active backend (e.g. ``REPRO_BACKEND=numba`` in CI) the flag is
    harmless and the grid simply runs that backend against the references.
    """
    monkeypatch.setattr(numpy_backend, "_FORCE_PORTABLE", request.param == "portable")
    return request.param


@pytest.fixture(params=["numpy", "numba", "array-api"])
def each_backend(request):
    """Run the raw-kernel grid against every installed compute backend.

    Backends whose optional dependency is missing are skipped with an
    explicit reason rather than silently shrinking the grid.
    """
    name = request.param
    if name not in backend_registry.available_backends():
        pytest.skip(f"backend {name!r} is not installed in this environment")
    with backend_registry.use_backend(name):
        yield name


class TestScatterOps:
    def test_scatter_add_matches_ufunc_at_bitwise(self, each_backend, kernel_dispatch):
        for target, destinations, values in random_batches(seed=1, trials=150):
            expected = target.copy()
            np.add.at(expected, destinations, values)
            actual = scatter_add(target.copy(), destinations, values)
            np.testing.assert_array_equal(bits(expected), bits(actual))

    def test_scatter_min_matches_ufunc_at_bitwise(self, each_backend, kernel_dispatch):
        for target, destinations, values in random_batches(seed=2, trials=150):
            expected = target.copy()
            np.minimum.at(expected, destinations, values)
            actual = scatter_min(target.copy(), destinations, values)
            np.testing.assert_array_equal(bits(expected), bits(actual))

    def test_scatter_max_matches_ufunc_at_bitwise(self, each_backend, kernel_dispatch):
        for target, destinations, values in random_batches(seed=3, trials=150):
            expected = target.copy()
            np.maximum.at(expected, destinations, values)
            actual = scatter_max(target.copy(), destinations, values)
            np.testing.assert_array_equal(bits(expected), bits(actual))

    def test_empty_batch_is_a_no_op(self, each_backend, kernel_dispatch):
        target = np.array([1.0, 2.0, 3.0])
        empty = np.zeros(0, dtype=np.int64)
        for op in (scatter_add, scatter_min, scatter_max):
            out = op(target.copy(), empty, np.zeros(0))
            np.testing.assert_array_equal(out, target)

    def test_duplicate_destinations_fold_in_message_order(self, each_backend, kernel_dispatch):
        # The exactness claim is about fold order: target, v1, v2, ... in
        # original message order, even for many duplicates of one bin.
        target = np.array([0.1])
        values = np.array([1e16, 1.0, -1e16, 3.0, 7.0])
        destinations = np.zeros(values.size, dtype=np.int64)
        expected = target.copy()
        np.add.at(expected, destinations, values)
        actual = scatter_add(target.copy(), destinations, values)
        np.testing.assert_array_equal(bits(expected), bits(actual))


class TestPushAndActivate:
    def legacy_reference(self, target, destinations, values, combine, threshold):
        """The seed formulation: ufunc.at + snapshot + np.unique."""
        if combine == "add":
            np.add.at(target, destinations, values)
            active = target[destinations] > threshold
            return np.unique(destinations[active])
        previous = target[destinations].copy()
        if combine == "min":
            np.minimum.at(target, destinations, values)
            changed = target[destinations] < previous
        else:
            np.maximum.at(target, destinations, values)
            changed = target[destinations] > previous
        return np.unique(destinations[changed])

    @pytest.mark.parametrize("combine", ["min", "max", "add"])
    def test_matches_legacy_formulation(self, each_backend, kernel_dispatch, combine):
        threshold = 0.5 if combine == "add" else None
        kwargs = {"threshold": threshold} if combine == "add" else {}
        for target, destinations, values in random_batches(seed=4, trials=150):
            expected_state = target.copy()
            expected_active = self.legacy_reference(
                expected_state, destinations, values, combine, threshold
            )
            actual_state = target.copy()
            actual_active = push_and_activate(
                actual_state, destinations, values, combine=combine, **kwargs
            )
            np.testing.assert_array_equal(bits(expected_state), bits(actual_state))
            np.testing.assert_array_equal(expected_active, actual_active)
            assert actual_active.dtype == np.int64

    def test_empty_batch_returns_empty_frontier(self, each_backend, kernel_dispatch):
        target = np.ones(5)
        out = push_and_activate(target, np.zeros(0, dtype=np.int64), np.zeros(0), combine="min")
        assert out.size == 0 and out.dtype == np.int64

    def test_add_requires_threshold(self, each_backend, kernel_dispatch):
        with pytest.raises(ValueError, match="threshold"):
            push_and_activate(np.ones(4), np.array([1]), np.array([1.0]), combine="add")

    def test_unknown_combine_rejected(self):
        with pytest.raises(ValueError, match="combine"):
            push_and_activate(np.ones(4), np.array([1]), np.array([1.0]), combine="sum")

    def test_dense_and_sparse_paths_agree(self, each_backend, kernel_dispatch):
        # The same logical batch must give the same answer on both sides
        # of the density heuristic; shrink/grow the target to flip it.
        rng = np.random.default_rng(9)
        destinations = rng.integers(0, 50, size=200)
        values = rng.random(200)
        dense_target = rng.random(50)  # 200 * 8 >= 50 -> dense
        sparse_target = np.concatenate([dense_target, rng.random(50_000)])  # -> sparse
        dense_active = push_and_activate(dense_target, destinations, values, combine="add", threshold=0.75)
        sparse_active = push_and_activate(sparse_target, destinations, values, combine="add", threshold=0.75)
        np.testing.assert_array_equal(dense_active, sparse_active)
        np.testing.assert_array_equal(bits(dense_target), bits(sparse_target[:50]))

    def test_legacy_context_toggles_dispatch(self):
        assert not using_legacy_kernels()
        with legacy_kernels():
            assert using_legacy_kernels()
        assert not using_legacy_kernels()


def seed_process_reference(algorithm, graph, state_arrays, active_vertices):
    """Verbatim seed implementations of every ``process()`` hot path."""
    from repro.algorithms.base import gather_edge_indices

    active_vertices = np.asarray(active_vertices, dtype=np.int64)
    if algorithm in ("sssp", "bfs", "cc"):
        key = {"sssp": "dist", "bfs": "level", "cc": "label"}[algorithm]
        target = state_arrays[key]
        edge_indices, sources = gather_edge_indices(graph, active_vertices)
        if edge_indices.size == 0:
            return np.zeros(0, dtype=np.int64)
        destinations = graph.column_index[edge_indices]
        if algorithm == "sssp":
            candidates = target[sources] + graph.edge_value[edge_indices]
        elif algorithm == "bfs":
            candidates = target[sources] + 1.0
        else:
            candidates = target[sources]
        previous = target[destinations].copy()
        np.minimum.at(target, destinations, candidates)
        improved = target[destinations] < previous
        return np.unique(destinations[improved])

    if active_vertices.size == 0:
        return np.zeros(0, dtype=np.int64)
    values_key, rate, tolerance = {
        "pr": ("rank", 0.85, 1e-3),
        "php": ("php", 0.8, 1e-4),
    }[algorithm]
    values, deltas = state_arrays[values_key], state_arrays["delta"]
    outgoing = deltas[active_vertices].copy()
    values[active_vertices] += outgoing
    deltas[active_vertices] = 0.0
    degrees = graph.out_degrees[active_vertices]
    has_edges = degrees > 0
    senders = active_vertices[has_edges]
    if senders.size == 0:
        return np.zeros(0, dtype=np.int64)
    per_edge_share = rate * outgoing[has_edges] / degrees[has_edges]
    edge_indices, _ = gather_edge_indices(graph, senders)
    destinations = graph.column_index[edge_indices]
    shares = np.repeat(per_edge_share, degrees[has_edges])
    if algorithm == "php":
        source = int(state_arrays["source"][0])
        keep = destinations != source
        destinations = destinations[keep]
        shares = shares[keep]
        if destinations.size == 0:
            return np.zeros(0, dtype=np.int64)
        np.add.at(deltas, destinations, shares)
        active = deltas[destinations] > tolerance
        return np.unique(destinations[active])
    previous = deltas[destinations] > tolerance
    np.add.at(deltas, destinations, shares)
    now_active = deltas[destinations] > tolerance
    newly = destinations[now_active & ~previous]
    return np.unique(np.concatenate([newly, destinations[now_active]]))


class TestPortedAlgorithms:
    """Each ported ``process()`` must match the seed implementation bitwise."""

    def graphs(self):
        self_loops = CSRGraph.from_edges(
            [(0, 0), (0, 1), (1, 1), (1, 2), (2, 0), (2, 2), (3, 1)],
            num_vertices=5,  # vertex 4 is isolated
            weights=[1.0, 2.0, 3.0, 1.0, 5.0, 2.0, 1.0],
            name="self-loops",
        )
        multi = CSRGraph.from_edges(
            [(0, 1), (0, 1), (0, 2), (1, 2), (1, 2), (1, 2), (2, 0)],
            num_vertices=3,
            weights=[4.0, 2.0, 1.0, 3.0, 1.0, 2.0, 1.0],
            name="duplicate-edges",
        )
        random_graph = uniform_random_graph(80, 600, seed=11, weighted=True)
        scale_free = rmat_graph(128, 1200, seed=13, weighted=True)
        return [self_loops, multi, random_graph, scale_free]

    def frontiers(self, graph, rng):
        yield np.zeros(0, dtype=np.int64)  # empty frontier
        yield np.arange(graph.num_vertices, dtype=np.int64)  # everything
        for _ in range(4):
            count = int(rng.integers(1, graph.num_vertices + 1))
            yield np.sort(rng.choice(graph.num_vertices, size=count, replace=False))

    @pytest.mark.parametrize(
        "name, program",
        [
            ("sssp", SSSP()),
            ("bfs", BFS()),
            ("cc", ConnectedComponents()),
            ("pr", DeltaPageRank()),
            ("php", PHP()),
        ],
    )
    def test_process_matches_seed_bitwise(self, kernel_dispatch, name, program):
        rng = np.random.default_rng(17)
        for graph in self.graphs():
            source = 0
            state = program.create_state(graph, source if program.needs_source else None)
            # Push some mass around first so the state is non-trivial.
            warm = np.arange(0, graph.num_vertices, 2, dtype=np.int64)
            program.process(graph, state, warm)
            for frontier in self.frontiers(graph, rng):
                expected_arrays = {key: value.copy() for key, value in state.arrays.items()}
                expected_active = seed_process_reference(name, graph, expected_arrays, frontier)
                actual_state = state.copy()
                actual_active = program.process(graph, actual_state, frontier)
                np.testing.assert_array_equal(expected_active, actual_active)
                for key in expected_arrays:
                    np.testing.assert_array_equal(
                        bits(expected_arrays[key]), bits(actual_state[key]), err_msg="%s/%s" % (name, key)
                    )

    def test_pagerank_activation_includes_already_hot_destinations(self, kernel_dispatch):
        # The satellite fix: the returned frontier is exactly the unique
        # destinations above tolerance, with no duplicate-unique pass.
        graph = CSRGraph.from_edges([(0, 1), (0, 2), (2, 1)], num_vertices=3)
        program = DeltaPageRank(tolerance=1e-6)
        state = program.create_state(graph)
        state["delta"][1] = 1.0  # destination already above tolerance
        active = program.process(graph, state, np.array([0], dtype=np.int64))
        np.testing.assert_array_equal(active, [1, 2])


class TestEngineEquivalence:
    """Full engine runs agree between seed kernels and the kernel layer."""

    @pytest.mark.parametrize(
        "program, needs_source",
        [
            (SSSP(), True),
            (BFS(), True),
            (DeltaPageRank(), False),
            (PHP(), True),
        ],
    )
    def test_hytgraph_run_identical_under_both_dispatches(self, program, needs_source):
        graph = rmat_graph(256, 2500, seed=21, weighted=True)
        system = HyTGraphSystem(graph)
        kwargs = {"source": 3} if needs_source else {}
        with legacy_kernels():
            result_legacy = system.run(program, **kwargs)
        result_fused = system.run(program, **kwargs)
        np.testing.assert_array_equal(
            bits(result_legacy.values), bits(result_fused.values)
        )
        assert len(result_legacy.iterations) == len(result_fused.iterations)
        for legacy_stats, fused_stats in zip(result_legacy.iterations, result_fused.iterations):
            assert legacy_stats.active_vertices == fused_stats.active_vertices
            assert legacy_stats.processed_edges == fused_stats.processed_edges
            assert legacy_stats.transfer_bytes == fused_stats.transfer_bytes

    def test_reference_solvers_unchanged_by_dispatch(self):
        from repro.algorithms.reference import pagerank_values, php_values

        graph = rmat_graph(200, 1500, seed=23)
        with legacy_kernels():
            pr_legacy = pagerank_values(graph, max_iterations=50)
            php_legacy = php_values(graph, source=0, max_iterations=50)
        np.testing.assert_array_equal(bits(pr_legacy), bits(pagerank_values(graph, max_iterations=50)))
        np.testing.assert_array_equal(bits(php_legacy), bits(php_values(graph, source=0, max_iterations=50)))


class TestTransferTaskBatching:
    """transfer_task must reproduce the per-partition transfer() loop."""

    def _loop_reference(self, engine, partitions, active, cuts):
        bytes_total, transfer_time, cpu_time, overlapped = 0, 0.0, 0.0, False
        for position, partition in enumerate(partitions):
            outcome = engine.transfer(partition, active[cuts[position] : cuts[position + 1]])
            bytes_total += outcome.bytes_transferred
            transfer_time += outcome.transfer_time
            cpu_time += outcome.cpu_time
            overlapped = overlapped or outcome.overlapped
        return bytes_total, transfer_time, cpu_time, overlapped

    @pytest.mark.parametrize("engine_name", ["compaction", "zero_copy"])
    def test_matches_per_partition_loop(self, engine_name):
        from repro.graph.partition import partition_by_count
        from repro.sim.config import default_config
        from repro.transfer.explicit_compaction import ExplicitCompactionEngine
        from repro.transfer.zero_copy import ZeroCopyEngine

        graph = rmat_graph(300, 2500, seed=29, weighted=True)
        config = default_config()
        partitioning = partition_by_count(graph, 7)
        engine = {
            "compaction": ExplicitCompactionEngine,
            "zero_copy": ZeroCopyEngine,
        }[engine_name](graph, config)

        rng = np.random.default_rng(31)
        for trial in range(10):
            count = int(rng.integers(0, graph.num_vertices))
            active = np.sort(rng.choice(graph.num_vertices, size=count, replace=False))
            partitions = [partitioning[index] for index in range(partitioning.num_partitions)]
            boundaries = [partition.vertex_start for partition in partitions]
            boundaries.append(partitions[-1].vertex_end)
            cuts = np.searchsorted(active, boundaries)
            expected = self._loop_reference(engine, partitions, active, cuts)
            outcome = engine.transfer_task(partitions, active, cuts)
            assert outcome.bytes_transferred == expected[0]
            assert outcome.transfer_time == pytest.approx(expected[1], rel=0, abs=0)
            assert outcome.cpu_time == pytest.approx(expected[2], rel=0, abs=0)
            assert outcome.overlapped == expected[3]
