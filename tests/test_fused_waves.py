"""Fused multi-query waves: K rows per planning call, bitwise per query.

The HyTGraph engine plans a batch super-iteration's live sessions with
one ``_plan(sessions)`` call and runs each task step of every row of one
program as one ``process`` call over stacked ``K x |V|`` state.  Rows
never share a destination and each row keeps its message order, so every
query's values and simulated numbers must stay what the one-plan-per-query
runner produced.  ``tests/data/fused_waves.json`` pins them per cell
(regenerate with ``python tests/data/generate_fused_waves.py``).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.algorithms import make_algorithm
from repro.core.backends import active_backend, available_backends, use_backend
from repro.runtime.batch import QueryBatchRunner
from repro.sim.config import HardwareConfig
from repro.systems.hytgraph import HyTGraphSystem
from tests.data.generate_fused_waves import CELLS, build_graph, fingerprint, run_cell

FIXTURE = Path(__file__).resolve().parent / "data" / "fused_waves.json"


@pytest.fixture(scope="module")
def reference() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def graph():
    return build_graph()


@pytest.fixture(params=("numpy", "numba"))
def kernel_backend(request):
    name = request.param
    if name not in available_backends():
        pytest.skip(f"backend {name!r} is not installed in this environment")
    with use_backend(name):
        yield name


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_fused_wave_matches_the_per_query_fingerprint(reference, graph, kernel_backend, cell):
    batch = run_cell(graph, cell)
    assert batch.extra["backend"] == kernel_backend
    current, pinned = fingerprint(batch), reference["cases"][cell]
    assert current["values_sha256"] == pinned["values_sha256"], "per-query values changed"
    assert current["num_iterations"] == pinned["num_iterations"]
    assert current["iterations_sha256"] == pinned["iterations_sha256"], "an IterationStats field changed"
    assert current["latencies_hex"] == pinned["latencies_hex"], "per-query latencies changed"
    assert current["makespan_hex"] == pinned["makespan_hex"], "batch makespan changed"


def test_fixture_covers_every_cell(reference):
    assert sorted(reference["cases"]) == sorted(CELLS)


def test_a_wave_plans_once_per_super_iteration(graph, monkeypatch):
    # K live rows, one planning call: plan_iteration is never reached.
    calls = []
    system = HyTGraphSystem(graph, num_partitions=4)
    plan = system.engine._plan
    monkeypatch.setattr(system.engine, "_plan", lambda sessions: calls.append(len(sessions)) or plan(sessions))
    monkeypatch.setattr(system, "plan_iteration", None)
    queries = [(make_algorithm("bfs"), source) for source in (0, 1, 2)]
    batch = QueryBatchRunner(system).run(queries)
    assert len(calls) == batch.super_iterations
    assert calls[0] == 3 and sum(calls) == sum(result.num_iterations for result in batch.results)


def test_no_fused_push_carries_more_than_one_sweep(graph, monkeypatch):
    # Four all-active PageRank rows on one partition: every row's first
    # step pushes |E| messages, so the fused step holds 4|E| and must be
    # split at row boundaries into calls of at most |E| each.
    num_rows = 4
    num_vertices, num_edges = graph.num_vertices, graph.num_edges
    backend = active_backend()
    calls: list[tuple[int, int]] = []

    config = HardwareConfig(gpu_memory_bytes=graph.edge_data_bytes // 2, pcie_bandwidth=1e9)
    system = HyTGraphSystem(graph, config=config, num_partitions=1)
    queries = [(make_algorithm("pr"), None)] * num_rows
    alone = system.run(make_algorithm("pr"))

    class Recording:
        name = backend.name

        def push_and_activate(self, target, destinations, values, **kwargs):
            calls.append((int(destinations.size), np.unique(destinations // num_vertices).size))
            return backend.push_and_activate(target, destinations, values, **kwargs)

    with use_backend(Recording()):
        batch = QueryBatchRunner(system).run(queries)
    assert max(size for size, _ in calls) <= num_edges
    assert sum(size for size, _ in calls) > num_edges
    # Identical rows stay in lockstep, so an unsplit call would hold all four.
    assert min(rows for _, rows in calls) < num_rows
    for result in batch.results:
        assert np.array_equal(result.values, alone.values)
        assert [stats.processed_edges for stats in result.iterations] == [
            stats.processed_edges for stats in alone.iterations
        ]
