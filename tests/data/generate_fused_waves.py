"""Regenerate the fused-wave fingerprint fixture.

Every cell runs one HyTGraph :class:`~repro.runtime.batch.QueryBatchRunner`
batch and pins what the batch computes: a SHA-256 per query of its raw
value array, a SHA-256 per query of every :class:`IterationStats` field
of every iteration (canonical JSON, dict key order included), the
per-query latencies and the batch makespan.  The fixture was captured
from the one-plan-per-query batch runner, before super-iterations were
planned as one K-row call; ``tests/test_fused_waves.py`` replays the
cells and demands exact equality.

Run from the repository root (only after an *intentional* behaviour
change)::

    python tests/data/generate_fused_waves.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np

from repro.algorithms import make_algorithm
from repro.core.engine import HyTGraphOptions
from repro.graph.generators import uniform_random_graph
from repro.runtime.batch import QueryBatchRunner
from repro.sim.config import HardwareConfig
from repro.systems.hytgraph import HyTGraphSystem

OUTPUT = Path(__file__).resolve().parent / "fused_waves.json"

#: Symmetric (CC needs it) and weighted (SSSP needs it).
GRAPH_SPEC = {"vertices": 2000, "edges": 12000, "seed": 1, "weighted": True}
#: Few, large partitions: some tasks then price cheapest by compaction.
NUM_PARTITIONS = 4

#: All five programs: two rows each of BFS, SSSP, PHP (distinct sources)
#: and CC, one PageRank.
MIXED = (
    ("bfs", 0), ("sssp", 3), ("pr", None), ("php", 5), ("cc", None),
    ("bfs", 17), ("php", 9), ("cc", None), ("sssp", 40),
)

#: name -> (queries, devices, options, system keyword arguments, priorities)
CELLS = {
    "k1-1dev": (MIXED[1:2], 1, {}, {}, None),
    "k2-1dev": (MIXED[:2], 1, {}, {}, None),
    "k9-1dev": (MIXED, 1, {}, {}, None),
    "k1-2dev": (MIXED[3:4], 2, {}, {}, None),
    "k2-2dev": (MIXED[3:5], 2, {}, {}, None),
    "k9-2dev": (MIXED, 2, {}, {}, None),
    "k9-no-recompute": (MIXED, 1, {"recompute_loaded": False}, {}, None),
    "k9-no-combining": (MIXED, 1, {"task_combining": False}, {}, None),
    "k9-no-cds": (MIXED, 1, {"contribution_scheduling": False}, {}, None),
    # Ranks differ from submission order, so rows plan out of submission order.
    "k9-lru-priority": (
        MIXED, 1, {}, {"cache_policy": "lru", "cache_budget": 160_000},
        (2, 0, 3, 1, 0, 2, 1, 3, 0),
    ),
}


def build_graph():
    return uniform_random_graph(
        GRAPH_SPEC["vertices"],
        GRAPH_SPEC["edges"],
        seed=GRAPH_SPEC["seed"],
        weighted=GRAPH_SPEC["weighted"],
        name="uniform-fused",
    ).symmetrize()


def run_cell(graph, name: str):
    """The cell's batch, run on a freshly built system."""
    queries, devices, options, system_kwargs, priorities = CELLS[name]
    # PCIe throttled below kernel throughput so every engine is selected.
    config = HardwareConfig(gpu_memory_bytes=graph.edge_data_bytes // 2, pcie_bandwidth=1e9)
    system = HyTGraphSystem(
        graph,
        config=config.with_devices(devices) if devices > 1 else config,
        options=HyTGraphOptions(**options),
        num_partitions=NUM_PARTITIONS,
        **system_kwargs,
    )
    batch = QueryBatchRunner(system).run(
        [(make_algorithm(algorithm), source) for algorithm, source in queries],
        priorities=priorities,
    )
    return batch


def _sha256(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def fingerprint(batch) -> dict:
    """Values, iteration records, latencies and makespan of one batch."""
    return {
        "values_sha256": [
            _sha256(np.ascontiguousarray(result.values, dtype=np.float64).tobytes())
            for result in batch.results
        ],
        "iterations_sha256": [
            _sha256(
                json.dumps([dataclasses.asdict(stats) for stats in result.iterations]).encode()
            )
            for result in batch.results
        ],
        "num_iterations": [len(result.iterations) for result in batch.results],
        "latencies_hex": [float(latency).hex() for latency in batch.latencies],
        "makespan_hex": float(batch.makespan).hex(),
    }


def main() -> None:
    graph = build_graph()
    cases = {name: fingerprint(run_cell(graph, name)) for name in CELLS}
    OUTPUT.write_text(json.dumps({"graph": GRAPH_SPEC, "cases": cases}, indent=2, sort_keys=True) + "\n")
    print("wrote %d cells to %s" % (len(cases), OUTPUT))


if __name__ == "__main__":
    main()
