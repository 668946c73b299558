"""Unit tests for graph statistics (Figure 3f)."""

import pytest

from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat_graph
from repro.graph.properties import degree_bucket_fractions, summarize


class TestDegreeStatistics:
    def test_bucket_fractions_sum_to_one(self, medium_power_law_graph):
        fractions = degree_bucket_fractions(medium_power_law_graph)
        assert sum(fractions.values()) == pytest.approx(1.0)
        assert set(fractions) == {"[0,8)", "[8,16)", "[16,24)", "[24,32)", "[32,inf)"}

    def test_bucket_fractions_known_graph(self):
        graph = CSRGraph.from_edges([(0, 1)] * 0 + [(1, i) for i in range(2, 12)], num_vertices=12)
        fractions = degree_bucket_fractions(graph)
        # Vertex 1 has degree 10 -> bucket [8,16); all others degree 0.
        assert fractions["[8,16)"] == pytest.approx(1 / 12)
        assert fractions["[0,8)"] == pytest.approx(11 / 12)

    def test_bucket_edges_are_half_open(self):
        # One vertex on each side of every Figure 3(f) bucket edge.
        degrees = [0, 7, 8, 15, 16, 23, 24, 31, 32, 40]
        edges, target = [], len(degrees)
        for vertex, degree in enumerate(degrees):
            edges += [(vertex, target + k) for k in range(degree)]
        graph = CSRGraph.from_edges(edges, num_vertices=target + max(degrees))
        counts = {
            label: round(fraction * graph.num_vertices)
            for label, fraction in degree_bucket_fractions(graph).items()
        }
        sinks = graph.num_vertices - len(degrees)
        assert counts == {
            "[0,8)": 2 + sinks, "[8,16)": 2, "[16,24)": 2, "[24,32)": 2, "[32,inf)": 2,
        }

    @pytest.mark.parametrize("seed", [3, 11])
    def test_bucket_fractions_match_a_per_vertex_oracle(self, seed):
        graph = rmat_graph(300, 4000, seed=seed)
        expected = dict.fromkeys(["[0,8)", "[8,16)", "[16,24)", "[24,32)", "[32,inf)"], 0)
        for degree in graph.out_degrees.tolist():
            label = "[32,inf)" if degree >= 32 else "[%d,%d)" % (degree // 8 * 8, degree // 8 * 8 + 8)
            expected[label] += 1
        fractions = degree_bucket_fractions(graph)
        assert fractions == {label: count / graph.num_vertices for label, count in expected.items()}

    def test_empty_graph(self):
        assert degree_bucket_fractions(CSRGraph.empty(0)) == {}

    def test_summarize(self, paper_graph):
        summary = summarize(paper_graph)
        assert summary.num_vertices == 6
        assert summary.num_edges == 10
        assert summary.max_out_degree == 2
        assert summary.fraction_below_32 == 1.0
        row = summary.as_row()
        assert row["dataset"] == "figure1"
        assert row["|E|"] == 10

