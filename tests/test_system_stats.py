"""Every system's iteration statistics, pinned bit for bit.

``tests/data/system_stats.json`` pins, per (system, algorithm, device
count) cell of a solo run: the value array's SHA-256, every
:class:`~repro.metrics.results.IterationStats` field of every iteration
(times, bytes, busy times, processed edges, engine mixes in key order,
cache bytes) and the run's extras.  Any backend must reproduce it
exactly (regenerate with ``python tests/data/generate_system_stats.py``).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.backends import available_backends, use_backend
from repro.systems import SYSTEMS
from tests.data.generate_system_stats import CELLS, STATS_FIELDS, build_graph, fingerprint, run_cell

FIXTURE = Path(__file__).resolve().parent / "data" / "system_stats.json"


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
def test_run_matches_the_pinned_statistics(reference, graph, kernel_backend, cell):
    result = run_cell(graph, cell)
    assert result.system == SYSTEMS[CELLS[cell][0]].name
    assert result.extra["backend"] == kernel_backend
    current, pinned = fingerprint(result), reference["cases"][cell]
    assert current["values_sha256"] == pinned["values_sha256"], "per-vertex values changed"
    assert current["values_dtype"] == pinned["values_dtype"]
    assert current["converged"] == pinned["converged"]
    assert len(current["iterations"]) == len(pinned["iterations"]), "iteration count changed"
    for index, (row, pinned_row) in enumerate(zip(current["iterations"], pinned["iterations"])):
        changed = [
            name for name, value, expected in zip(STATS_FIELDS, row, pinned_row) if value != expected
        ]
        assert not changed, "iteration %d changed: %s" % (index, ", ".join(changed))
    assert current["extra"] == pinned["extra"]


def test_fixture_covers_every_cell_and_field(reference):
    assert sorted(reference["cases"]) == sorted(CELLS)
    assert reference["fields"] == STATS_FIELDS
