"""Correctness tests for the vertex programs against CPU references.

These run the programs synchronously (processing the whole frontier each
iteration) and compare against SciPy / power-iteration references: the
answers must be exact regardless of graph shape.
"""

import numpy as np
import pytest

from repro.algorithms import ALGORITHMS, make_algorithm, reference
from repro.algorithms.base import gather_edge_indices
from repro.algorithms.bfs import BFS
from repro.algorithms.cc import ConnectedComponents
from repro.algorithms.pagerank import DeltaPageRank
from repro.algorithms.php import PHP
from repro.algorithms.sssp import SSSP
from repro.graph.csr import CSRGraph
from repro.graph.generators import grid_graph, path_graph, star_graph

from tests.conftest import assert_distances_equal


def run_synchronously(program, graph, source=None, max_iterations=10_000):
    """Reference executor: process the entire frontier every iteration."""
    state = program.create_state(graph, source)
    pending = program.initial_frontier(graph, state, source)
    for _ in range(max_iterations):
        active = np.nonzero(pending)[0]
        if active.size == 0:
            break
        pending[active] = False
        newly = program.process(graph, state, active)
        if newly.size:
            pending[newly] = True
    return program.vertex_result(state)


class TestGatherEdgeIndices:
    def test_matches_manual_slices(self, paper_graph):
        edge_indices, sources = gather_edge_indices(paper_graph, np.array([1, 3]))
        expected_indices = list(range(2, 4)) + list(range(6, 8))
        np.testing.assert_array_equal(edge_indices, expected_indices)
        np.testing.assert_array_equal(sources, [1, 1, 3, 3])

    def test_empty_input(self, paper_graph):
        edge_indices, sources = gather_edge_indices(paper_graph, np.array([], dtype=np.int64))
        assert edge_indices.size == 0
        assert sources.size == 0

    def test_zero_degree_vertices(self):
        graph = path_graph(4)
        edge_indices, sources = gather_edge_indices(graph, np.array([3]))
        assert edge_indices.size == 0


class TestSSSP:
    def test_figure1_example(self, paper_graph):
        distances = run_synchronously(SSSP(), paper_graph, source=0)
        np.testing.assert_allclose(distances, [0, 2, 4, 3, 4, 6])

    def test_random_graph_matches_dijkstra(self, medium_rmat_graph):
        source = int(np.argmax(medium_rmat_graph.out_degrees))
        distances = run_synchronously(SSSP(), medium_rmat_graph, source=source)
        assert_distances_equal(distances, reference.sssp_distances(medium_rmat_graph, source))

    def test_disconnected_vertices_stay_infinite(self):
        graph = CSRGraph.from_edges([(0, 1)], num_vertices=4, weights=[3.0])
        distances = run_synchronously(SSSP(), graph, source=0)
        assert distances[1] == 3.0
        assert np.isinf(distances[2]) and np.isinf(distances[3])

    def test_requires_weights(self):
        graph = path_graph(4)
        with pytest.raises(ValueError):
            run_synchronously(SSSP(), graph, source=0)

    def test_requires_source(self, paper_graph):
        with pytest.raises(ValueError):
            SSSP().create_state(paper_graph, None)

    def test_invalid_source(self, paper_graph):
        with pytest.raises(ValueError):
            SSSP().create_state(paper_graph, 99)

    def test_grid_graph(self):
        graph = grid_graph(6, 6, weighted=True, seed=3)
        distances = run_synchronously(SSSP(), graph, source=0)
        assert_distances_equal(distances, reference.sssp_distances(graph, 0))


class TestBFS:
    def test_levels_on_path(self):
        graph = path_graph(6)
        levels = run_synchronously(BFS(), graph, source=0)
        np.testing.assert_allclose(levels, [0, 1, 2, 3, 4, 5])

    def test_random_graph_matches_reference(self, medium_power_law_graph):
        graph = medium_power_law_graph.without_weights()
        source = int(np.argmax(graph.out_degrees))
        levels = run_synchronously(BFS(), graph, source=source)
        assert_distances_equal(levels, reference.bfs_levels(graph, source))

    def test_star_graph(self):
        graph = star_graph(10)
        levels = run_synchronously(BFS(), graph, source=0)
        assert levels[0] == 0
        np.testing.assert_allclose(levels[1:], 1)


class TestConnectedComponents:
    def test_two_components(self):
        graph = CSRGraph.from_edges(
            [(0, 1), (1, 0), (1, 2), (2, 1), (3, 4), (4, 3)], num_vertices=5
        )
        labels = run_synchronously(ConnectedComponents(), graph)
        np.testing.assert_allclose(labels, [0, 0, 0, 3, 3])

    def test_symmetrized_random_graph_matches_reference(self, medium_rmat_graph):
        graph = medium_rmat_graph.without_weights().symmetrize()
        labels = run_synchronously(ConnectedComponents(), graph)
        np.testing.assert_allclose(labels, reference.connected_component_labels(graph))

    def test_isolated_vertices_label_themselves(self):
        graph = CSRGraph.empty(4)
        labels = run_synchronously(ConnectedComponents(), graph)
        np.testing.assert_allclose(labels, [0, 1, 2, 3])


class TestDeltaPageRank:
    def test_matches_power_iteration(self, medium_rmat_graph):
        graph = medium_rmat_graph.without_weights()
        program = DeltaPageRank(tolerance=1e-9)
        ranks = run_synchronously(program, graph)
        expected = reference.pagerank_values(graph)
        np.testing.assert_allclose(ranks, expected, rtol=1e-4, atol=1e-6)

    def test_uniform_cycle_has_equal_ranks(self):
        edges = [(i, (i + 1) % 8) for i in range(8)]
        graph = CSRGraph.from_edges(edges, num_vertices=8)
        ranks = run_synchronously(DeltaPageRank(tolerance=1e-10), graph)
        np.testing.assert_allclose(ranks, ranks[0])

    def test_rank_mass_conserved_without_dangling(self):
        # Without dangling vertices total rank equals |V| in the
        # non-normalised formulation.
        edges = [(i, (i + 1) % 10) for i in range(10)] + [(i, (i + 3) % 10) for i in range(10)]
        graph = CSRGraph.from_edges(edges, num_vertices=10)
        ranks = run_synchronously(DeltaPageRank(tolerance=1e-12), graph)
        assert ranks.sum() == pytest.approx(10.0, rel=1e-6)

    def test_hub_gets_higher_rank(self):
        graph = star_graph(20).symmetrize()
        ranks = run_synchronously(DeltaPageRank(tolerance=1e-10), graph)
        assert ranks[0] == ranks.max()

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            DeltaPageRank(damping=1.5)
        with pytest.raises(ValueError):
            DeltaPageRank(tolerance=0.0)

    def test_partition_delta(self, medium_power_law_graph):
        program = DeltaPageRank()
        state = program.create_state(medium_power_law_graph)
        total = program.partition_delta(medium_power_law_graph, state, 0, medium_power_law_graph.num_vertices)
        assert total == pytest.approx(state["delta"].sum())


class TestPHP:
    def test_matches_fixed_point(self, medium_rmat_graph):
        graph = medium_rmat_graph.without_weights()
        source = int(np.argmax(graph.out_degrees))
        program = PHP(tolerance=1e-10)
        values = run_synchronously(program, graph, source=source)
        expected = reference.php_values(graph, source, penalty=program.penalty)
        np.testing.assert_allclose(values, expected, rtol=1e-4, atol=1e-6)

    def test_source_is_one(self, medium_power_law_graph):
        source = 5
        values = run_synchronously(PHP(), medium_power_law_graph, source=source)
        assert values[source] == 1.0

    def test_values_bounded(self, medium_power_law_graph):
        values = run_synchronously(PHP(tolerance=1e-8), medium_power_law_graph, source=0)
        assert values.min() >= 0.0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            PHP(penalty=0.0)
        with pytest.raises(ValueError):
            PHP(tolerance=-1.0)


class TestRegistry:
    def test_all_algorithms_instantiable(self):
        for name in ALGORITHMS:
            assert make_algorithm(name) is not None

    def test_aliases(self):
        assert isinstance(make_algorithm("pr"), DeltaPageRank)

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            make_algorithm("triangle-count")

    def test_program_state_copy_independent(self, paper_graph):
        program = SSSP()
        state = program.create_state(paper_graph, 0)
        duplicate = state.copy()
        duplicate["dist"][0] = 42.0
        assert state["dist"][0] == 0.0

    @pytest.mark.parametrize(
        "program, expected",
        [(SSSP(), [0]), (BFS(), [0]), (PHP(), [0]), (ConnectedComponents(), range(6)), (DeltaPageRank(), range(6))],
    )
    def test_initial_frontier_is_a_fresh_bitmap(self, paper_graph, program, expected):
        state = program.create_state(paper_graph, 0)
        before = state.copy()
        first = program.initial_frontier(paper_graph, state, 0)
        assert first.dtype == bool and first.shape == (paper_graph.num_vertices,)
        assert np.flatnonzero(first).tolist() == list(expected)
        # The runtime clears its pending set in place: no state may alias it.
        first[:] = False
        assert np.flatnonzero(program.initial_frontier(paper_graph, state, 0)).tolist() == list(expected)
        for key in state.arrays:
            np.testing.assert_array_equal(state[key], before[key])
