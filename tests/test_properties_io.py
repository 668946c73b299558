"""Unit tests for graph statistics (Figure 3f) and graph persistence."""

import numpy as np
import pytest

from repro.graph.csr import CSRGraph
from repro.graph.io import load_csr, load_edge_list, save_csr, save_edge_list
from repro.graph.properties import degree_bucket_fractions, degree_histogram, summarize


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

    def test_empty_graph(self):
        assert degree_bucket_fractions(CSRGraph.empty(0)) == {}

    def test_degree_histogram(self):
        graph = CSRGraph.from_edges([(0, 1), (0, 2), (1, 2)], num_vertices=3)
        histogram = degree_histogram(graph)
        assert histogram == {2: 1, 1: 1, 0: 1}

    def test_summarize(self, paper_graph):
        summary = summarize(paper_graph)
        assert summary.num_vertices == 6
        assert summary.num_edges == 10
        assert summary.max_out_degree == 2
        assert summary.fraction_below_32 == 1.0
        row = summary.as_row()
        assert row["dataset"] == "figure1"
        assert row["|E|"] == 10


class TestEdgeListIO:
    def test_roundtrip_weighted(self, paper_graph, tmp_path):
        path = tmp_path / "graph.txt"
        save_edge_list(paper_graph, path)
        loaded = load_edge_list(path, num_vertices=6)
        assert loaded.num_edges == paper_graph.num_edges
        np.testing.assert_array_equal(loaded.row_offset, paper_graph.row_offset)
        np.testing.assert_array_equal(loaded.column_index, paper_graph.column_index)
        np.testing.assert_allclose(loaded.edge_value, paper_graph.edge_value)

    def test_roundtrip_unweighted(self, small_random_graph, tmp_path):
        graph = small_random_graph.without_weights()
        path = tmp_path / "graph.txt"
        save_edge_list(graph, path)
        loaded = load_edge_list(path, num_vertices=graph.num_vertices)
        assert not loaded.is_weighted
        np.testing.assert_array_equal(loaded.column_index, graph.column_index)

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("# comment\n\n% another\n0 1\n1 2\n")
        loaded = load_edge_list(path)
        assert loaded.num_edges == 2

    def test_forced_unweighted_parse(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("0 1 9\n1 0 7\n")
        loaded = load_edge_list(path, weighted=False)
        assert not loaded.is_weighted

    def test_weights_roundtrip_exactly(self, tmp_path):
        weights = [1234567.25, 0.1, 1e-7]
        graph = CSRGraph.from_edges([(0, 1), (1, 2), (2, 0)], weights=weights)
        path = tmp_path / "graph.txt"
        save_edge_list(graph, path)
        np.testing.assert_array_equal(load_edge_list(path).edge_value, weights)

    def test_header_vertex_count_is_honoured(self, tmp_path):
        graph = CSRGraph.from_edges([(0, 1), (1, 2)], num_vertices=5)  # 3 and 4 isolated
        path = tmp_path / "graph.txt"
        save_edge_list(graph, path)
        loaded = load_edge_list(path)
        assert loaded.num_vertices == 5
        np.testing.assert_array_equal(loaded.row_offset, graph.row_offset)
        assert load_edge_list(path, num_vertices=7).num_vertices == 7

    @pytest.mark.parametrize("bad_line", ["3", "a b", "0 1 heavy"])
    def test_malformed_line_names_file_and_line(self, tmp_path, bad_line):
        path = tmp_path / "graph.txt"
        path.write_text("# comment\n0 1 2.5\n%s\n" % bad_line)
        with pytest.raises(ValueError, match=r"graph\.txt:3: expected 'src dst \[weight\]'"):
            load_edge_list(path)


class TestCSRBundleIO:
    def test_roundtrip(self, paper_graph, tmp_path):
        path = tmp_path / "graph.npz"
        save_csr(paper_graph, path)
        loaded = load_csr(path)
        np.testing.assert_array_equal(loaded.row_offset, paper_graph.row_offset)
        np.testing.assert_array_equal(loaded.column_index, paper_graph.column_index)
        np.testing.assert_allclose(loaded.edge_value, paper_graph.edge_value)
        assert loaded.name == paper_graph.name

    def test_roundtrip_unweighted(self, tmp_path):
        graph = CSRGraph.from_edges([(0, 1), (1, 2)], num_vertices=3, name="tiny")
        path = tmp_path / "tiny.npz"
        save_csr(graph, path)
        loaded = load_csr(path)
        assert not loaded.is_weighted
        assert loaded.num_edges == 2
