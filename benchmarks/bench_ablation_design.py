"""Ablations of HyTGraph's own design constants (DESIGN.md section 5).

The paper fixes three groups of constants without sweeping them:

* the engine-selection thresholds α = 0.8 and β = 0.4 (Section V-A);
* the partitioning granularity (32 MB chunks) and the filter-task
  combination factor k = 4 (Section V-B);
* the hub fraction (8 %) of the contribution-driven scheduler and the
  recompute-once policy (Section VI-A).

These benchmarks sweep each group on one representative workload so the
sensitivity of the design choices is visible, and assert that the paper's
defaults are at least competitive (within a modest factor of the best
setting found in the sweep).
"""

import numpy as np
from conftest import run_once

from repro.bench.workloads import build_workload
from repro.core.engine import HyTGraphOptions
from repro.core.selection import SelectionThresholds
from repro.metrics.tables import format_table


def test_ablation_selection_thresholds(benchmark, report_writer, bench_scale):
    def experiment():
        workload = build_workload("FK", "sssp", scale=bench_scale)
        rows = []
        for alpha in (0.5, 0.8, 1.0):
            for beta in (0.2, 0.4, 0.8):
                options = HyTGraphOptions(thresholds=SelectionThresholds(alpha=alpha, beta=beta))
                result = workload.run("hytgraph", options=options)
                rows.append(
                    {
                        "alpha": alpha,
                        "beta": beta,
                        "time": result.total_time,
                        "transfer_MB": round(result.total_transfer_bytes / 1e6, 3),
                    }
                )
        return rows

    rows = run_once(benchmark, experiment)
    report_writer("ablation_thresholds", format_table(rows, title="Ablation: selection thresholds (SSSP, FK)"))
    best = min(row["time"] for row in rows)
    default = next(row["time"] for row in rows if row["alpha"] == 0.8 and row["beta"] == 0.4)
    assert default <= 1.3 * best


def test_ablation_partitioning_granularity(benchmark, report_writer, bench_scale):
    def experiment():
        workload = build_workload("FK", "pagerank", scale=bench_scale)
        rows = []
        for num_partitions in (8, 32, 64, 128):
            for combine_factor in (1, 4, 8):
                options = HyTGraphOptions(combine_factor=combine_factor)
                result = workload.run("hytgraph", options=options, num_partitions=num_partitions)
                rows.append(
                    {
                        "partitions": num_partitions,
                        "k": combine_factor,
                        "time": result.total_time,
                        "iterations": result.num_iterations,
                    }
                )
        return rows

    rows = run_once(benchmark, experiment)
    report_writer("ablation_partitioning", format_table(rows, title="Ablation: partition count and combine factor (PR, FK)"))
    best = min(row["time"] for row in rows)
    default = next(row["time"] for row in rows if row["partitions"] == 64 and row["k"] == 4)
    # At laptop scale the per-partition overheads weigh more than on the
    # paper's billion-edge graphs, so the default 64-partition layout only
    # needs to stay in the same ballpark as the best sweep point.
    assert default <= 2.5 * best
    # Combining (k>1) should not hurt relative to no combining at the same
    # partition count.
    for partitions in (32, 64, 128):
        uncombined = next(r["time"] for r in rows if r["partitions"] == partitions and r["k"] == 1)
        combined = next(r["time"] for r in rows if r["partitions"] == partitions and r["k"] == 4)
        assert combined <= 1.2 * uncombined


def test_ablation_priority_scheduling(benchmark, report_writer, bench_scale):
    def experiment():
        workload = build_workload("UK", "pagerank", scale=bench_scale)
        rows = []
        for hub_fraction in (0.0, 0.04, 0.08, 0.16):
            for recompute in (False, True):
                options = HyTGraphOptions(
                    hub_sorting=hub_fraction > 0,
                    hub_fraction=max(hub_fraction, 0.01),
                    recompute_loaded=recompute,
                )
                result = workload.run("hytgraph", options=options)
                rows.append(
                    {
                        "hub_fraction": hub_fraction,
                        "recompute_once": recompute,
                        "time": result.total_time,
                        "iterations": result.num_iterations,
                        "transfer_MB": round(result.total_transfer_bytes / 1e6, 3),
                    }
                )
        return rows

    rows = run_once(benchmark, experiment)
    report_writer("ablation_priority", format_table(rows, title="Ablation: hub fraction and recompute-once (PR, UK)"))
    # Recompute-once should reduce outer iterations for the accumulative workload.
    with_recompute = np.mean([row["iterations"] for row in rows if row["recompute_once"]])
    without_recompute = np.mean([row["iterations"] for row in rows if not row["recompute_once"]])
    assert with_recompute <= without_recompute
