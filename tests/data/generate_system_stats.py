"""Regenerate the per-system iteration-statistics fixture.

Every cell runs one solo ``system.run`` and pins everything the run
records: a SHA-256 of the raw value array, every field of every
:class:`~repro.metrics.results.IterationStats` as one row (floats as
exact hex strings, the engine dicts as ``[key, count]`` pairs in
insertion order)
and the JSON-safe :attr:`RunResult.extra` (minus ``backend``, which names
the kernel backend the run happened to use).  The grid is all seven
systems x the five algorithms at one device, the four multi-device
systems again at two devices, and one ExpTM-F cell under the ``lru``
cache.  The fixture was captured before the synchronous baselines'
shared iteration tail moved into ``GraphSystem``;
``tests/test_system_stats.py`` replays the cells and demands exact
equality.

Run from the repository root (only after an *intentional* behaviour
change)::

    python tests/data/generate_system_stats.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np

from repro.algorithms import make_algorithm
from repro.graph.generators import rmat_graph
from repro.metrics.results import IterationStats
from repro.sim.config import HardwareConfig
from repro.systems import SYSTEMS, make_system

OUTPUT = Path(__file__).resolve().parent / "system_stats.json"

GRAPH_SPEC = {"vertices": 600, "edges": 4800, "seed": 13, "weighted": True}

#: algorithm -> source (``None``: the program takes none).
ALGORITHMS = {"bfs": 0, "sssp": 0, "pr": None, "php": 0, "cc": None}

#: Column order of each pinned iteration row.
STATS_FIELDS = [field.name for field in dataclasses.fields(IterationStats)]

MULTI_DEVICE = ("hytgraph", "emogi", "subway", "exptm-f")

#: name -> (system, algorithm, devices, system keyword arguments)
CELLS = {
    **{
        "%s/%s/1dev" % (system, algorithm): (system, algorithm, 1, {})
        for system in SYSTEMS
        for algorithm in ALGORITHMS
    },
    **{
        "%s/%s/2dev" % (system, algorithm): (system, algorithm, 2, {})
        for system in MULTI_DEVICE
        for algorithm in ALGORITHMS
    },
    # Budget for about two thirds of the edge data: both hits and evictions.
    "exptm-f/sssp/1dev/lru": ("exptm-f", "sssp", 1, {"cache_policy": "lru", "cache_budget": 24_000}),
}


def build_graph():
    return rmat_graph(
        GRAPH_SPEC["vertices"],
        GRAPH_SPEC["edges"],
        seed=GRAPH_SPEC["seed"],
        weighted=GRAPH_SPEC["weighted"],
        name="rmat-system-stats",
    )


def run_cell(graph, name: str):
    """The cell's solo run, on a freshly built system."""
    system_name, algorithm, devices, system_kwargs = CELLS[name]
    # Half the edge data fits: Grus prefetches part of it, UM evicts.
    config = HardwareConfig(gpu_memory_bytes=graph.edge_data_bytes // 2).with_devices(devices)
    system = make_system(system_name, graph, config=config, **system_kwargs)
    return system.run(make_algorithm(algorithm), source=ALGORITHMS[algorithm])


def _canonical(value):
    """``value`` as exact, order-preserving JSON."""
    if isinstance(value, dict):
        return [[key, _canonical(item)] for key, item in value.items()]
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, (bool, str)) or value is None:
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    return float(value).hex()


def fingerprint(result) -> dict:
    """Values, every IterationStats field and the extras of one run."""
    values = np.ascontiguousarray(result.values)
    return {
        "values_sha256": hashlib.sha256(values.tobytes()).hexdigest(),
        "values_dtype": str(values.dtype),
        "converged": result.converged,
        "iterations": [
            [_canonical(getattr(stats, name)) for name in STATS_FIELDS] for stats in result.iterations
        ],
        "extra": _canonical({key: item for key, item in result.extra.items() if key != "backend"}),
    }


def main() -> None:
    graph = build_graph()
    cases = {name: fingerprint(run_cell(graph, name)) for name in CELLS}
    payload = {"graph": GRAPH_SPEC, "fields": STATS_FIELDS, "cases": cases}
    OUTPUT.write_text(json.dumps(payload, sort_keys=True) + "\n")
    print("wrote %d cells to %s" % (len(cases), OUTPUT))


if __name__ == "__main__":
    main()
