"""Figure 8 — performance gain of Task Combining and Contribution-Driven
Scheduling.

Starting from the raw hybrid transfer management (multi-stream scheduling
only), the paper adds task combining (TC) and then contribution-driven
scheduling (CDS) and reports normalized speedups per algorithm and
dataset.  The assertions check the qualitative conclusions: the combined
optimisations help on average, PageRank benefits the most, and BFS
benefits the least.
"""

import numpy as np
from conftest import run_once

from repro.bench.workloads import build_workload, paper_datasets
from repro.core.engine import HyTGraphOptions
from repro.metrics.tables import format_table

ALGORITHMS = ["pagerank", "sssp", "cc", "bfs"]

CONFIGURATIONS = {
    "Hybrid": HyTGraphOptions(task_combining=False, contribution_scheduling=False),
    "Hybrid+TC": HyTGraphOptions(task_combining=True, contribution_scheduling=False),
    "Hybrid+TC+CDS": HyTGraphOptions(task_combining=True, contribution_scheduling=True),
}


def test_fig8_tc_and_cds_gains(benchmark, report_writer, bench_scale):
    def experiment():
        table = {}
        for algorithm in ALGORITHMS:
            for dataset in paper_datasets():
                workload = build_workload(dataset, algorithm, scale=bench_scale)
                for label, options in CONFIGURATIONS.items():
                    result = workload.run("hytgraph", options=options)
                    table[(algorithm, dataset, label)] = result.total_time
        return table

    table = run_once(benchmark, experiment)

    rows = []
    speedups = {algorithm: [] for algorithm in ALGORITHMS}
    for algorithm in ALGORITHMS:
        for dataset in paper_datasets():
            baseline = table[(algorithm, dataset, "Hybrid")]
            row = {"alg": algorithm.upper(), "dataset": dataset}
            for label in CONFIGURATIONS:
                row[label] = round(baseline / table[(algorithm, dataset, label)], 3)
            rows.append(row)
            speedups[algorithm].append(row["Hybrid+TC+CDS"])
    report = format_table(rows, title="Figure 8: normalized speedup over raw Hybrid")
    averages = {algorithm: round(float(np.mean(values)), 3) for algorithm, values in speedups.items()}
    report += "\naverage TC+CDS speedup per algorithm: %s\n" % averages
    report_writer("fig8_ablation", report)

    # The optimisations never hurt much and help on average.
    assert all(average > 0.9 for average in averages.values())
    assert np.mean(list(averages.values())) > 1.0
    # BFS benefits least (vertices activated only once).
    assert averages["bfs"] <= max(averages.values())
