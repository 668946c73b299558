"""Benchmark harness shared by the ``benchmarks/`` experiment drivers."""

from repro.bench.workloads import (
    Workload,
    build_workload,
    paper_datasets,
    scaled_config_for,
)

__all__ = ["Workload", "build_workload", "paper_datasets", "scaled_config_for"]
