"""Equivalence tests for the scatter-reduce kernel backends.

The backends (:mod:`repro.core.backends`) replace the seed ``np.add.at``
/ ``np.minimum.at`` + snapshot + ``np.unique`` code paths.  Their
contract is *bitwise* equality, not approximate equality: every kernel
must produce exactly the state the unbuffered ufunc would, and the fused
``push_and_activate`` must report exactly the activation set the seed
formulation computed.  The seed formulation lives here as
:class:`SeedKernels`, the oracle.  These property-style tests check the
contract on seeded random inputs covering empty frontiers, self-loops,
duplicate destinations and both the dense and the sparse activation
formulations, for the raw kernels, for every ported ``process()`` under
each ``out_edges`` regime (checked against the seed per-edge-index gather,
which lives here too) and for full engine runs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms import base as algorithms_base
from repro.algorithms.base import OutEdges, out_edges
from repro.algorithms.bfs import BFS
from repro.algorithms.cc import ConnectedComponents
from repro.algorithms.pagerank import DeltaPageRank
from repro.algorithms.php import PHP
from repro.algorithms.sssp import SSSP
from repro.core.backends import active_backend, available_backends, numpy_backend, use_backend
from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat_graph, uniform_random_graph
from repro.systems.hytgraph import HyTGraphSystem


def bits(array: np.ndarray) -> np.ndarray:
    """Reinterpret float64 values as uint64 so equality is bit-exact."""
    return np.asarray(array, dtype=np.float64).view(np.uint64)


#: The bits of ``-0.0``, the add identity a padding message carries.
PADDING_BITS = np.float64(-0.0).view(np.uint64)


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


class SeedKernels:
    """The seed kernel formulation as a backend: the oracle.

    Bare ``ufunc.at`` scatters; ``push_and_activate`` snapshots the
    per-message destination values, scatters, and ``np.unique``s the
    destinations that qualify.  An add message of ``-0.0`` pads a span
    push (see ``OutEdges.spread``): it changes no bit and is not a
    message, so the oracle drops it first.  ``use_backend(SeedKernels())``
    runs whole engines on it.
    """

    name = "seed"

    @staticmethod
    def scatter_add(target, destinations, values):
        np.add.at(target, destinations, values)
        return target

    @staticmethod
    def scatter_min(target, destinations, values):
        np.minimum.at(target, destinations, values)
        return target

    @staticmethod
    def scatter_max(target, destinations, values):
        np.maximum.at(target, destinations, values)
        return target

    @staticmethod
    def push_and_activate(target, destinations, values, *, combine="min", threshold=None):
        destinations = np.asarray(destinations, dtype=np.int64)
        if combine == "add":
            values = np.asarray(values, dtype=np.float64)
            real = values.view(np.uint64) != PADDING_BITS
            destinations, values = destinations[real], values[real]
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

    def warmup(self):
        return None


def _counted(kernel):
    def counted(self, *args, **kwargs):
        self.calls += 1
        return kernel(*args, **kwargs)

    return counted


class CountingBackend(numpy_backend.NumpyBackend):
    """The numpy kernels under another name, counting the calls they get.

    A second backend that is never the ambient one unless a test makes it
    so: pinning it shows which backend a code path really dispatches to.
    """

    name = "counting"

    def __init__(self) -> None:
        self.calls = 0

    scatter_add = _counted(numpy_backend.scatter_add)
    scatter_min = _counted(numpy_backend.scatter_min)
    scatter_max = _counted(numpy_backend.scatter_max)
    push_and_activate = _counted(numpy_backend.push_and_activate)


@pytest.fixture(params=["numpy", "numba"])
def each_backend(request):
    """Run the raw-kernel grid against every installed compute backend.

    Backends whose optional dependency is missing are skipped with an
    explicit reason rather than silently shrinking the grid.
    """
    name = request.param
    if name not in available_backends():
        pytest.skip(f"backend {name!r} is not installed in this environment")
    with use_backend(name) as backend:
        yield backend


@pytest.fixture(params=["dense", "sparse"])
def formulation(request, monkeypatch):
    """Force one activation formulation on every batch, whatever its size.

    ``push_and_activate`` picks the touched-vertex bitmap (dense) or the
    per-message compare + ``np.unique`` (sparse) from the batch size, so a
    batch normally exercises only one of them.  Pinning the density factor
    runs every batch through each; the numba backend reads the same test.
    """
    factor = 2**40 if request.param == "dense" else 0
    monkeypatch.setattr(numpy_backend, "DENSE_FRONTIER_FACTOR", factor)
    return request.param


def assert_push_matches_seed(backend, target, destinations, values, combine, formulation=None):
    """``backend.push_and_activate`` leaves the seed oracle's state and frontier."""
    kwargs = {"threshold": 0.5} if combine == "add" else {}
    if formulation is not None and len(destinations):
        dense = numpy_backend._is_dense(np.asarray(destinations), target)
        assert dense == (formulation == "dense")
    expected_state = target.copy()
    expected_active = SeedKernels.push_and_activate(
        expected_state, destinations, values, combine=combine, **kwargs
    )
    actual_state = target.copy()
    actual_active = backend.push_and_activate(
        actual_state, destinations, values, combine=combine, **kwargs
    )
    np.testing.assert_array_equal(bits(expected_state), bits(actual_state))
    np.testing.assert_array_equal(expected_active, actual_active)
    assert actual_active.dtype == np.int64


def _strided_views():
    destinations = np.array([3, 0, 1, 0, 3, 2, 1, 2, 0, 1])[::2]
    values = np.array([0.5, -2.0, 4.0, 1.5, -1.0, 3.0, 2.5, 0.25, 9.0, -0.75])[1::2]
    return np.array([1.0, 0.0, -1.0, 2.0]), destinations, values


#: Hand-built batches for the corners random batches rarely hit.  Each
#: builds ``(target, destinations, values)`` valid for min, max and add.
EDGE_CASES = {
    # SSSP / BFS state starts at +inf; pushes into and from infinities.
    "infinite_state": lambda: (
        np.array([np.inf, np.inf, 0.0, np.inf, -np.inf, 3.0]),
        np.array([0, 1, 1, 3, 4, 2, 5]),
        np.array([1.0, 2.0, np.inf, 7.0, 5.0, 0.0, -np.inf]),
    ),
    # Messages equal to the current value: min / max must not activate.
    "ties": lambda: (
        np.array([1.0, 2.0, 3.0]),
        np.array([0, 1, 2, 0]),
        np.array([1.0, 2.0, 3.0, 1.0]),
    ),
    # Sums land exactly on the 0.5 threshold, which is not "above" it.
    "threshold_boundary": lambda: (
        np.array([0.25, 0.0, 0.5, 1.0]),
        np.array([0, 1, 1, 2, 3]),
        np.array([0.25, 0.25, 0.25, 0.0, -0.5]),
    ),
    # Every message to one vertex, in an order that makes the fold matter.
    "single_hot_vertex": lambda: (
        np.array([0.1, 5.0, -5.0]),
        np.full(9, 1, dtype=np.int64),
        np.array([1e16, 1.0, -1e16, 3.0, 7.0, -2.0, 0.5, 6.0, 4.0]),
    ),
    # The bitmap's first and last slots.
    "first_and_last_vertex": lambda: (
        np.arange(10, dtype=np.float64),
        np.array([0, 9, 9, 0, 9]),
        np.array([-1.0, 12.0, 8.0, 0.75, -3.0]),
    ),
    "int32_destinations": lambda: (
        np.array([4.0, 1.0, 0.0, 2.0, 8.0]),
        np.array([4, 2, 0, 2, 3, 4], dtype=np.int32),
        np.array([3.0, -1.0, 6.0, 0.5, 2.0, 9.0]),
    ),
    "list_inputs": lambda: (
        np.array([2.0, -1.0, 0.0]),
        [2, 0, 1, 2],
        [1.0, 0.5, -3.0, -0.25],
    ),
    "strided_views": _strided_views,
    # Padding (-0.0) reaches destinations above the threshold, which it
    # must not activate; the +0.0 share to vertex 2 is real and must.
    "padding_and_positive_zero": lambda: (
        np.array([0.75, 0.25, 0.75, 2.0]),
        np.array([0, 1, 2, 3, 1]),
        np.array([-0.0, 0.5, 0.0, -0.0, -0.0]),
    ),
    # A share a 1e17 target absorbs: its destination is reached but unchanged.
    "absorbed_share": lambda: (
        np.array([1e17, 0.25, 0.75]),
        np.array([0, 1, 2, 0]),
        np.array([1.0, 0.5, -0.0, 2.0]),
    ),
}

#: The identity each combine pads a span push with (``OutEdges.spread``).
IDENTITY = {"min": np.inf, "max": -np.inf, "add": -0.0}


def bitmap_push(target, destinations, values, combine, threshold=None):
    """The touched-bitmap formulation, the oracle of padded batches.

    A bitmap marks the destinations a message reached (padding reaches
    none); the bare ``ufunc.at`` scatters; min / max keep the marked
    destinations whose value improved, add those above ``threshold``.
    """
    destinations = np.asarray(destinations, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    reached = destinations[bits(values) != PADDING_BITS] if combine == "add" else destinations
    touched = np.zeros(target.size, dtype=bool)
    touched[reached] = True
    ids = np.flatnonzero(touched)
    before = target[ids]
    {"min": np.minimum, "max": np.maximum, "add": np.add}[combine].at(target, destinations, values)
    after = target[ids]
    if combine == "add":
        return ids[after > threshold]
    return ids[after < before] if combine == "min" else ids[after > before]


#: Targets: finite values, both zeros, infinities and a value that absorbs
#: every share below 8.
TARGET_VALUES = st.one_of(
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    st.sampled_from([0.0, -0.0, 1e17, np.inf, -np.inf]),
)
#: Per-sender values: positive shares (the fast path), +0.0 shares, shares
#: too small for their target and negative ones (the fallback), and for
#: min / max infinities.
SENDER_VALUES = {
    "add": st.one_of(
        st.floats(min_value=1e-3, max_value=10.0),
        st.sampled_from([0.0, 1e-20, 1.0, -0.5]),
    ),
    "min": st.one_of(st.floats(min_value=-1e3, max_value=1e3), st.sampled_from([np.inf, -np.inf])),
}
SENDER_VALUES["max"] = SENDER_VALUES["min"]


@st.composite
def padded_batches(draw, combine):
    """``(target, destinations, values)``: a span push padded with ``IDENTITY[combine]``.

    The span is a run of vertices with random out-degrees; the senders a
    random subset of it (possibly none), the destinations random targets.
    """
    target = np.array(draw(st.lists(TARGET_VALUES, min_size=1, max_size=40)), dtype=np.float64)
    if combine == "add":
        # inf + (-inf) is NaN: keep the add targets on one side of it.
        target[target == -np.inf] = np.inf
    counts = np.array(draw(st.lists(st.integers(0, 4), min_size=1, max_size=12)), dtype=np.int64)
    members = np.flatnonzero(draw(st.lists(st.booleans(), min_size=counts.size, max_size=counts.size)))
    destinations = np.array(
        draw(st.lists(st.integers(0, target.size - 1), min_size=int(counts.sum()), max_size=int(counts.sum()))),
        dtype=np.int64,
    )
    sender_values = np.array(
        draw(st.lists(SENDER_VALUES[combine], min_size=members.size, max_size=members.size)), dtype=np.float64
    )
    edges = OutEdges(destinations, None, counts[members], counts, members)
    return target, destinations, edges.spread(sender_values, IDENTITY[combine])


class TestScatterOps:
    def test_scatter_add_matches_ufunc_at_bitwise(self, each_backend):
        for target, destinations, values in random_batches(seed=1, trials=150):
            expected = target.copy()
            np.add.at(expected, destinations, values)
            actual = each_backend.scatter_add(target.copy(), destinations, values)
            np.testing.assert_array_equal(bits(expected), bits(actual))

    def test_scatter_min_matches_ufunc_at_bitwise(self, each_backend):
        for target, destinations, values in random_batches(seed=2, trials=150):
            expected = target.copy()
            np.minimum.at(expected, destinations, values)
            actual = each_backend.scatter_min(target.copy(), destinations, values)
            np.testing.assert_array_equal(bits(expected), bits(actual))

    def test_scatter_max_matches_ufunc_at_bitwise(self, each_backend):
        for target, destinations, values in random_batches(seed=3, trials=150):
            expected = target.copy()
            np.maximum.at(expected, destinations, values)
            actual = each_backend.scatter_max(target.copy(), destinations, values)
            np.testing.assert_array_equal(bits(expected), bits(actual))

    def test_empty_batch_is_a_no_op(self, each_backend):
        target = np.array([1.0, 2.0, 3.0])
        empty = np.zeros(0, dtype=np.int64)
        for op in (each_backend.scatter_add, each_backend.scatter_min, each_backend.scatter_max):
            out = op(target.copy(), empty, np.zeros(0))
            np.testing.assert_array_equal(out, target)

    def test_duplicate_destinations_fold_in_message_order(self, each_backend):
        # The exactness claim is about fold order: target, v1, v2, ... in
        # original message order, even for many duplicates of one bin.
        target = np.array([0.1])
        values = np.array([1e16, 1.0, -1e16, 3.0, 7.0])
        destinations = np.zeros(values.size, dtype=np.int64)
        expected = target.copy()
        np.add.at(expected, destinations, values)
        actual = each_backend.scatter_add(target.copy(), destinations, values)
        np.testing.assert_array_equal(bits(expected), bits(actual))


class TestPushAndActivate:
    @pytest.mark.parametrize("combine", ["min", "max", "add"])
    def test_matches_legacy_formulation(self, each_backend, combine):
        for target, destinations, values in random_batches(seed=4, trials=150):
            assert_push_matches_seed(each_backend, target, destinations, values, combine)

    def test_empty_batch_returns_empty_frontier(self, each_backend):
        target = np.ones(5)
        out = each_backend.push_and_activate(target, np.zeros(0, dtype=np.int64), np.zeros(0), combine="min")
        assert out.size == 0 and out.dtype == np.int64

    def test_add_requires_threshold(self, each_backend):
        with pytest.raises(ValueError, match="threshold"):
            each_backend.push_and_activate(np.ones(4), np.array([1]), np.array([1.0]), combine="add")

    def test_unknown_combine_rejected(self):
        with pytest.raises(ValueError, match="combine"):
            active_backend().push_and_activate(np.ones(4), np.array([1]), np.array([1.0]), combine="sum")

    def test_dense_and_sparse_paths_agree(self, each_backend):
        # The same logical batch must give the same answer on both sides
        # of the density heuristic; shrink/grow the target to flip it.
        rng = np.random.default_rng(9)
        destinations = rng.integers(0, 50, size=200)
        values = rng.random(200)
        dense_target = rng.random(50)  # 200 * 8 >= 50 -> dense
        sparse_target = np.concatenate([dense_target, rng.random(50_000)])  # -> sparse
        push = each_backend.push_and_activate
        dense_active = push(dense_target, destinations, values, combine="add", threshold=0.75)
        sparse_active = push(sparse_target, destinations, values, combine="add", threshold=0.75)
        np.testing.assert_array_equal(dense_active, sparse_active)
        np.testing.assert_array_equal(bits(dense_target), bits(sparse_target[:50]))


class TestActivationFormulations:
    """Each formulation alone reproduces the seed oracle on every batch."""

    @pytest.mark.parametrize("combine", ["min", "max", "add"])
    def test_random_batches_match_seed(self, each_backend, formulation, combine):
        for target, destinations, values in random_batches(seed=5, trials=150):
            assert_push_matches_seed(each_backend, target, destinations, values, combine, formulation)

    @pytest.mark.parametrize("case", sorted(EDGE_CASES))
    @pytest.mark.parametrize("combine", ["min", "max", "add"])
    def test_edge_case_matches_seed(self, each_backend, formulation, combine, case):
        target, destinations, values = EDGE_CASES[case]()
        assert_push_matches_seed(each_backend, target, destinations, values, combine, formulation)

    @pytest.mark.parametrize("combine", ["min", "max", "add"])
    def test_padded_batches_match_the_bitmap_formulation(self, each_backend, formulation, combine):
        # Every padded batch, dense or sparse, fast path or guard fallback.
        kwargs = {"threshold": 0.5} if combine == "add" else {}

        @settings(max_examples=60, deadline=None, derandomize=True,
                  suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
        @given(padded_batches(combine))
        def check(batch):
            target, destinations, values = batch
            expected_state = target.copy()
            expected_active = bitmap_push(expected_state, destinations, values, combine, **kwargs)
            actual_state = target.copy()
            actual_active = each_backend.push_and_activate(
                actual_state, destinations, values, combine=combine, **kwargs
            )
            np.testing.assert_array_equal(bits(expected_state), bits(actual_state))
            np.testing.assert_array_equal(expected_active, actual_active)
            assert actual_active.dtype == np.int64

        check()


def seed_gather_edge_indices(graph, vertices):
    """The seed CSR gather: per-edge indices and repeated sources."""
    vertices = np.asarray(vertices, dtype=np.int64)
    if vertices.size == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    starts = graph.row_offset[vertices]
    degrees = graph.row_offset[vertices + 1] - starts
    total = int(degrees.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    repeats = np.repeat(np.arange(vertices.size), degrees)
    cumulative = np.concatenate([[0], np.cumsum(degrees)])[:-1]
    within = np.arange(total) - np.repeat(cumulative, degrees)
    edge_indices = np.repeat(starts, degrees) + within
    sources = vertices[repeats]
    return edge_indices, sources


def seed_process_reference(algorithm, graph, state_arrays, active_vertices):
    """Verbatim seed implementations of every ``process()`` hot path."""
    active_vertices = np.asarray(active_vertices, dtype=np.int64)
    if algorithm in ("sssp", "bfs", "cc"):
        key = {"sssp": "dist", "bfs": "level", "cc": "label"}[algorithm]
        target = state_arrays[key]
        edge_indices, sources = seed_gather_edge_indices(graph, active_vertices)
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
    edge_indices, _ = seed_gather_edge_indices(graph, senders)
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


def assert_process_matches_seed(name, program, graph, state, frontier):
    """``program.process`` leaves the seed's state and frontier; ``state`` is untouched."""
    expected_arrays = {key: value.copy() for key, value in state.arrays.items()}
    expected_active = seed_process_reference(name, graph, expected_arrays, frontier)
    actual_state = state.copy()
    actual_active = program.process(graph, actual_state, frontier)
    np.testing.assert_array_equal(expected_active, actual_active)
    for key in expected_arrays:
        np.testing.assert_array_equal(
            bits(expected_arrays[key]), bits(actual_state[key]), err_msg="%s/%s" % (name, key)
        )


#: Every ported program, by the name ``seed_process_reference`` knows it by.
PROGRAMS = [
    ("sssp", SSSP()),
    ("bfs", BFS()),
    ("cc", ConnectedComponents()),
    ("pr", DeltaPageRank()),
    ("php", PHP()),
]


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

    @pytest.mark.parametrize("name, program", PROGRAMS)
    def test_process_matches_seed_bitwise(self, name, program):
        rng = np.random.default_rng(17)
        for graph in self.graphs():
            source = 0
            state = program.create_state(graph, source if program.needs_source else None)
            # Push some mass around first so the state is non-trivial.
            warm = np.arange(0, graph.num_vertices, 2, dtype=np.int64)
            program.process(graph, state, warm)
            for frontier in self.frontiers(graph, rng):
                assert_process_matches_seed(name, program, graph, state, frontier)

    def test_pagerank_activation_includes_already_hot_destinations(self):
        # The satellite fix: the returned frontier is exactly the unique
        # destinations above tolerance, with no duplicate-unique pass.
        graph = CSRGraph.from_edges([(0, 1), (0, 2), (2, 1)], num_vertices=3)
        program = DeltaPageRank(tolerance=1e-6)
        state = program.create_state(graph)
        state["delta"][1] = 1.0  # destination already above tolerance
        active = program.process(graph, state, np.array([0], dtype=np.int64))
        np.testing.assert_array_equal(active, [1, 2])


def out_edge_regime(graph, vertices):
    """The regime ``out_edges`` must take for ``vertices``, from its definition."""
    vertices = np.asarray(vertices, dtype=np.int64)
    if vertices.size == 0 or not np.all(np.diff(vertices) > 0):
        return "gather"
    first, last = vertices[0], vertices[-1]
    if last - first + 1 == vertices.size:
        return "contiguous"
    span_edges = graph.row_offset[last + 1] - graph.row_offset[first]
    filled = algorithms_base.SPAN_DENSITY * graph.out_degrees[vertices].sum()
    return "span" if filled >= span_edges else "gather"


@pytest.fixture(params=["contiguous", "span", "gather"])
def gather_regime(request, monkeypatch):
    """Force one ``out_edges`` regime on every vertex set that can take it.

    A sorted vertex set normally pushes its whole span or gathers by index
    depending on how densely its edges fill the span, so a frontier
    exercises only one of them.  Pinning ``SPAN_DENSITY`` to a huge value
    sends every sorted, non-contiguous set with edges through the padded
    span, and pinning it to zero sends them through the index gather.  The
    contiguous regime is picked by the vertex set itself, so its frontiers
    are id runs.
    """
    factor = {"contiguous": algorithms_base.SPAN_DENSITY, "span": 2**40, "gather": 0}[request.param]
    monkeypatch.setattr(algorithms_base, "SPAN_DENSITY", factor)
    return request.param


#: Stacked rows of the stacked-state cells, and the row their frontier is in.
STACKED_ROWS, STACKED_ROW = 3, 1


def stacked_state(state, rows=STACKED_ROWS):
    """``rows`` copies of a one-row state, laid end to end as the engine stacks them."""
    return algorithms_base.ProgramState(
        {key: np.concatenate([value] * rows) for key, value in state.arrays.items()}
    )


def assert_stacked_process_matches_seed(name, program, graph, state, frontier):
    """One row's push in a stacked state: the seed's one-row push, shifted into its row.

    ``frontier`` holds strictly ascending local ids; the other rows must
    keep every bit.
    """
    num_vertices = graph.num_vertices
    expected_arrays = {key: value.copy() for key, value in state.arrays.items()}
    expected_active = seed_process_reference(name, graph, expected_arrays, frontier)
    actual = stacked_state(state)
    base = STACKED_ROW * num_vertices
    actual_active = program.process(graph, actual, np.asarray(frontier, dtype=np.int64) + base)
    np.testing.assert_array_equal(expected_active + base, actual_active)
    for key, value in state.arrays.items():
        rows = actual[key].reshape(STACKED_ROWS, -1)
        for row in range(STACKED_ROWS):
            expected = expected_arrays[key] if row == STACKED_ROW else value
            np.testing.assert_array_equal(
                bits(expected), bits(rows[row]), err_msg="%s/%s row %d" % (name, key, row)
            )


def strictly_ascending(frontier) -> bool:
    frontier = np.asarray(frontier)
    return frontier.size > 0 and bool(np.all(np.diff(frontier) > 0))


class TestOutEdgeRegimes:
    """Each ``out_edges`` regime alone reproduces the seed gather bitwise."""

    def graphs(self):
        # Vertices 2-5 have no out-edges: zero-degree runs inside spans.
        gaps = CSRGraph.from_edges(
            [(0, 7), (0, 0), (0, 7), (1, 3), (6, 1), (6, 6), (7, 0), (7, 2), (7, 6)],
            num_vertices=8,
            weights=[1.0, 2.0, 0.5, 4.0, 3.0, 1.0, 2.5, 1.5, 0.25],
            name="zero-degree-runs",
        )
        random_graph = uniform_random_graph(60, 240, seed=41, weighted=True)
        scale_free = rmat_graph(96, 700, seed=43, weighted=True)
        return [gaps, random_graph, scale_free]

    def frontiers(self, graph, rng):
        n = graph.num_vertices
        # Id runs: all vertices, the first and last vertex alone, random runs.
        yield np.arange(n)
        yield np.array([0])
        yield np.array([n - 1])
        for _ in range(6):
            start = int(rng.integers(0, n))
            yield np.arange(start, int(rng.integers(start + 1, n + 1)))
        # Sorted sets with gaps, from the first to the last vertex.
        yield np.array([0, n - 1])
        for _ in range(8):
            yield np.sort(rng.choice(n, size=int(rng.integers(2, n)), replace=False))
        # Input no span regime may take: a span read would misalign it.
        yield np.zeros(0, dtype=np.int64)
        yield np.array([3, 5, 4, 6])  # a permuted id run
        yield np.array([1, 1, 2, 6, 6])  # duplicates
        yield rng.permutation(n)[: n // 2]

    def regime_frontiers(self, graph, regime, rng):
        """Frontiers that take ``regime``, each as int64, int32 and a list."""
        hits = 0
        for frontier in self.frontiers(graph, rng):
            if out_edge_regime(graph, frontier) == regime:
                hits += 1
                yield frontier
                yield frontier.astype(np.int32)
                yield frontier.tolist()
        assert hits >= 3, (graph.name, regime, hits)

    @staticmethod
    def check_out_edges(graph, frontier, regime, row=0):
        """``out_edges`` of ``frontier`` (shifted into stacked ``row``) vs the seed gather."""
        weighted = graph.is_weighted
        local = np.asarray(frontier, dtype=np.int64)
        base = row * graph.num_vertices
        vertices = local + base if row else frontier
        edge_indices, sources = seed_gather_edge_indices(graph, local)
        edges = out_edges(graph, vertices, weighted=weighted)
        # Which sender each message slot carries (-1: a padding edge).
        owner = edges.spread(np.arange(local.size), -1)
        real = owner >= 0
        np.testing.assert_array_equal(edges.destinations[real], graph.column_index[edge_indices] + base)
        np.testing.assert_array_equal(local[owner[real]], sources)
        np.testing.assert_array_equal(edges.degrees, graph.out_degrees[local])
        assert edges.destinations.dtype == edges.degrees.dtype == np.int64
        if regime == "span":
            # The whole span, in CSR order, padded where a vertex is no sender.
            span = slice(graph.row_offset[local[0]], graph.row_offset[local[-1] + 1])
            np.testing.assert_array_equal(edges.destinations, graph.column_index[span] + base)
            assert (~real).sum() == (span.stop - span.start) - edge_indices.size
        else:
            assert real.all()
        if weighted:
            np.testing.assert_array_equal(bits(edges.weights[real]), bits(graph.edge_value[edge_indices]))
            assert edges.weights.size == edges.destinations.size
        else:
            assert edges.weights is None
        # A one-row id run or span reads its destinations in place.
        in_place = np.shares_memory(edges.destinations, graph.column_index)
        assert in_place == (regime != "gather" and row == 0 and edges.destinations.size > 0)

    def test_out_edges_match_seed_gather(self, gather_regime):
        rng = np.random.default_rng(47)
        for graph in self.graphs():
            for variant in (graph, graph.without_weights()):
                for frontier in self.regime_frontiers(variant, gather_regime, rng):
                    self.check_out_edges(variant, frontier, gather_regime)
                    if strictly_ascending(frontier):
                        # Stacked single-row flat ids keep the row's regime.
                        self.check_out_edges(variant, frontier, gather_regime, row=STACKED_ROW)

    def test_spread_fills_padding_with_the_identity(self):
        graph = self.graphs()[0]
        edges = out_edges(graph, np.array([0, 6, 7]))  # span 0:9, vertex 1's edge pads
        assert edges.members is not None
        spread = edges.spread(np.array([1.0, 2.0, 3.0]), -0.0)
        np.testing.assert_array_equal(spread, [1.0, 1.0, 1.0, 0.0, 2.0, 2.0, 3.0, 3.0, 3.0])
        assert bits(spread[3:4])[0] == PADDING_BITS
        assert spread.dtype == np.float64

    @pytest.mark.parametrize("name, program", PROGRAMS)
    def test_process_matches_seed_bitwise(self, gather_regime, name, program):
        rng = np.random.default_rng(53)
        for graph in self.graphs():
            variants = [graph] if program.needs_weights else [graph, graph.without_weights()]
            for variant in variants:
                state = program.create_state(variant, 0 if program.needs_source else None)
                program.process(variant, state, np.arange(0, variant.num_vertices, 3))
                for frontier in self.regime_frontiers(variant, gather_regime, rng):
                    assert_process_matches_seed(name, program, variant, state, frontier)
                    if strictly_ascending(frontier):
                        assert_stacked_process_matches_seed(name, program, variant, state, frontier)


class TestEngineEquivalence:
    """Full engine runs agree between the seed kernels and the active backend."""

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
        with use_backend(SeedKernels()):
            result_legacy = system.run(program, **kwargs)
        result_fused = system.run(program, **kwargs)
        assert result_legacy.extra["backend"] == "seed"
        np.testing.assert_array_equal(
            bits(result_legacy.values), bits(result_fused.values)
        )
        assert len(result_legacy.iterations) == len(result_fused.iterations)
        for legacy_stats, fused_stats in zip(result_legacy.iterations, result_fused.iterations):
            assert legacy_stats.active_vertices == fused_stats.active_vertices
            assert legacy_stats.processed_edges == fused_stats.processed_edges
            assert legacy_stats.transfer_bytes == fused_stats.transfer_bytes

    def test_reference_solvers_do_not_call_the_backend(self):
        # The references check the kernels, so they must not run on them.
        from repro.algorithms.reference import pagerank_values, php_values

        graph = rmat_graph(200, 1500, seed=23)
        with use_backend(CountingBackend()) as backend:
            pagerank_values(graph, max_iterations=50)
            php_values(graph, source=0, max_iterations=50)
        assert backend.calls == 0

