"""repro — a reproduction of HyTGraph (ICDE 2023).

HyTGraph is a GPU-accelerated out-of-core graph processing framework built
around *hybrid transfer management*: every iteration, every graph
partition containing active edges is shipped to the GPU with whichever of
three transfer mechanisms (explicit filter copy, CPU-compacted explicit
copy, or zero-copy on-demand access) an analytic cost model predicts to be
cheapest, and the resulting tasks are scheduled asynchronously with
contribution-driven priorities over multiple CUDA streams.

This package reproduces the complete system — the hybrid runtime, the four
transfer engines, the baseline systems it is compared against (Subway,
EMOGI, Grus, a pure filter baseline, a pure unified-memory baseline and a
CPU baseline), the graph substrate, and a simulated GPU/PCIe platform that
stands in for the paper's hardware testbed.

Quickstart
----------
>>> from repro import load_dataset, make_algorithm, make_system
>>> graph = load_dataset("SK", scale=0.2, weighted=True)
>>> system = make_system("hytgraph", graph)
>>> result = system.run(make_algorithm("sssp"), source=0)
>>> result.total_time, result.num_iterations  # doctest: +SKIP
"""

from repro.graph import CSRGraph, load_dataset, rmat_graph, power_law_graph
from repro.algorithms import make_algorithm, SSSP, BFS, ConnectedComponents, DeltaPageRank, PHP
from repro.systems import make_system, HyTGraphSystem, SubwaySystem, EmogiSystem, GrusSystem
from repro.core import HyTGraphOptions
from repro.sim import HardwareConfig, default_config, GPU_PRESETS
from repro.metrics import RunResult, IterationStats, BatchResult
from repro.runtime import ExecutionContext, IterationDriver, QueryBatchRunner

__version__ = "1.0.0"

__all__ = [
    "CSRGraph",
    "load_dataset",
    "rmat_graph",
    "power_law_graph",
    "make_algorithm",
    "SSSP",
    "BFS",
    "ConnectedComponents",
    "DeltaPageRank",
    "PHP",
    "make_system",
    "HyTGraphSystem",
    "SubwaySystem",
    "EmogiSystem",
    "GrusSystem",
    "HyTGraphOptions",
    "HardwareConfig",
    "default_config",
    "GPU_PRESETS",
    "RunResult",
    "IterationStats",
    "BatchResult",
    "ExecutionContext",
    "IterationDriver",
    "QueryBatchRunner",
    "__version__",
]
