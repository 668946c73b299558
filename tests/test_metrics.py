"""Unit tests for run records and table formatting."""

import pytest

from repro.metrics.results import IterationStats, RunResult
from repro.metrics.tables import format_series, format_table, normalize_speedups


def make_result():
    result = RunResult(system="X", algorithm="SSSP", graph_name="g")
    result.iterations = [
        IterationStats(
            index=0,
            time=1.0,
            active_vertices=10,
            active_edges=100,
            transfer_bytes=1000,
            compaction_time=0.2,
            transfer_time=0.5,
            kernel_time=0.3,
            processed_edges=100,
            engine_partitions={"ExpTM-F": 2},
            engine_tasks={"ExpTM-F": 1},
        ),
        IterationStats(
            index=1,
            time=2.0,
            active_vertices=20,
            active_edges=200,
            transfer_bytes=3000,
            compaction_time=0.0,
            transfer_time=1.0,
            kernel_time=0.5,
            processed_edges=250,
            engine_partitions={"ImpTM-ZC": 3, "ExpTM-F": 1},
            engine_tasks={"ImpTM-ZC": 1, "ExpTM-F": 1},
        ),
    ]
    result.converged = True
    result.preprocessing_time = 0.5
    return result


class TestRunResult:
    def test_aggregates(self):
        result = make_result()
        assert result.num_iterations == 2
        assert result.total_time == pytest.approx(3.0)
        assert result.total_transfer_bytes == 4000
        assert result.total_compaction_time == pytest.approx(0.2)
        assert result.total_transfer_time == pytest.approx(1.5)
        assert result.total_kernel_time == pytest.approx(0.8)
        assert result.total_processed_edges == 350

    def test_transfer_ratio(self):
        result = make_result()
        assert result.transfer_ratio(2000) == pytest.approx(2.0)
        assert result.transfer_ratio(0) == 0.0

    def test_per_iteration_times(self):
        assert make_result().per_iteration_times() == [1.0, 2.0]

    def test_engine_mix_fractions(self):
        mix = make_result().engine_mix()
        assert mix[0] == {"ExpTM-F": 1.0}
        assert mix[1]["ImpTM-ZC"] == pytest.approx(0.75)
        assert mix[1]["ExpTM-F"] == pytest.approx(0.25)

    def test_breakdown(self):
        breakdown = make_result().breakdown()
        assert breakdown == {
            "compaction": pytest.approx(0.2),
            "transfer": pytest.approx(1.5),
            "computation": pytest.approx(0.8),
        }

    def test_iteration_breakdown(self):
        stats = make_result().iterations[0]
        assert stats.breakdown()["transfer"] == pytest.approx(0.5)

    def test_summary_row(self):
        row = make_result().summary_row()
        assert row["system"] == "X"
        assert row["iterations"] == 2
        assert row["converged"] is True

    def test_empty_result(self):
        result = RunResult(system="X", algorithm="PR", graph_name="g")
        assert result.total_time == 0.0
        assert result.engine_mix() == []


class TestTables:
    def test_format_table_alignment(self):
        rows = [{"system": "HyTGraph", "time": 1.2345}, {"system": "Subway", "time": 10.0}]
        text = format_table(rows, title="Table V")
        lines = text.splitlines()
        assert lines[0] == "Table V"
        assert "system" in lines[1]
        assert len(lines) == 5

    def test_format_table_empty(self):
        assert format_table([]) == ""
        assert format_table([], title="T") == "T\n"

    def test_format_table_rejects_new_columns(self):
        with pytest.raises(ValueError):
            format_table([{"a": 1}, {"a": 2, "b": 3}])

    def test_format_table_missing_column_ok(self):
        text = format_table([{"a": 1, "b": 2}, {"a": 3}])
        assert "3" in text

    def test_format_series(self):
        text = format_series({"PR-actEdge": [1.0, 0.5, 0.25]}, title="Figure 3a")
        assert text.startswith("Figure 3a")
        assert "PR-actEdge" in text

    def test_normalize_speedups(self):
        speedups = normalize_speedups({"Subway": 10.0, "HyTGraph": 2.0}, baseline="Subway")
        assert speedups["Subway"] == 1.0
        assert speedups["HyTGraph"] == 5.0

    def test_normalize_speedups_missing_baseline(self):
        with pytest.raises(KeyError):
            normalize_speedups({"a": 1.0}, baseline="b")

    def test_normalize_speedups_zero_baseline(self):
        with pytest.raises(ValueError):
            normalize_speedups({"a": 0.0}, baseline="a")

    def test_normalize_speedups_zero_entry(self):
        speedups = normalize_speedups({"a": 1.0, "b": 0.0}, baseline="a")
        assert speedups["b"] == float("inf")


class TestDegenerateBatchMetrics:
    """Zero/near-zero baselines must not produce inf/nan (tiny graphs)."""

    def _batch(self, makespan):
        from repro.metrics.results import BatchResult

        return BatchResult(system="X", algorithm="PR", graph_name="g", makespan=makespan)

    def test_queries_per_second_zero_makespan(self):
        assert self._batch(0.0).queries_per_second == 0.0
        assert self._batch(1e-15).queries_per_second == 0.0

    def test_amortization_vs_zero_baseline_is_finite(self):
        import math

        stats = self._batch(0.0).amortization_vs([])
        assert stats["degenerate"] is True
        assert math.isfinite(stats["speedup"]) and stats["speedup"] == 1.0
        assert stats["sequential_time"] == 0.0

    def test_amortization_vs_zero_sequential_time(self):
        import math

        zero_run = RunResult(system="X", algorithm="PR", graph_name="g")
        stats = self._batch(2.0).amortization_vs([zero_run])
        assert stats["degenerate"] is True
        assert math.isfinite(stats["speedup"])

    def test_amortization_vs_normal_case_unchanged(self):
        result = make_result()
        stats = self._batch(1.5).amortization_vs([result])
        assert stats["degenerate"] is False
        assert stats["speedup"] == pytest.approx(result.total_time / 1.5)
