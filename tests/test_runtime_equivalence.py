"""Bitwise equivalence of the unified runtime vs the pre-refactor paths.

``tests/data/runtime_equivalence.json`` was captured from the twin-path
code (dedicated single-device ``run`` methods plus ``_run_multi``
sharded paths) immediately before the device-agnostic runtime replaced
them.  Every case pins, for one (system, algorithm, device-count) cell:

* the SHA-256 of the raw per-vertex value array,
* every iteration's simulated time as an exact float hex string,
* total PCIe transfer and inter-GPU boundary-delta bytes,
* iteration count and convergence.

The tests replay the same workloads through the unified runtime and
demand exact equality — the refactor must be a pure restructuring, down
to the last ulp of every iteration makespan.  Regenerate the fixture
(only after an *intentional* behaviour change) with::

    python tests/data/generate_runtime_equivalence.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from tests.data.generate_runtime_equivalence import (
    ALGORITHMS,
    DEVICE_COUNTS,
    SYSTEMS,
    build_graph,
    fingerprint,
)
from repro.core.backends import available_backends, use_backend
from repro.sim.config import HardwareConfig
from tests.test_kernels import SeedKernels

FIXTURE = Path(__file__).resolve().parent / "data" / "runtime_equivalence.json"

#: The fixtures were captured with the numpy kernels; every backend must
#: reproduce them bit for bit (simulated times are priced from message
#: counts, so identical values/frontiers imply identical timings too).
#: ``seed`` runs the runtime on the test oracle's seed kernels: a numpy
#: cell that fails beside a passing seed cell means the kernels changed;
#: both failing means the runtime did.
BACKENDS = ("numpy", "numba", "seed")


@pytest.fixture(scope="module")
def reference() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def graph():
    return build_graph()


@pytest.fixture(params=BACKENDS)
def kernel_backend(request):
    name = request.param
    if name == "seed":
        backend = SeedKernels()
    elif name in available_backends():
        backend = name
    else:
        pytest.skip(f"backend {name!r} is not installed in this environment")
    with use_backend(backend):
        yield name


@pytest.mark.parametrize("system_key,system_cls", SYSTEMS)
@pytest.mark.parametrize("algorithm_key,algorithm_cls,source", ALGORITHMS)
@pytest.mark.parametrize("devices", DEVICE_COUNTS)
def test_unified_runtime_matches_pre_refactor_main(
    reference, graph, kernel_backend, system_key, system_cls, algorithm_key, algorithm_cls,
    source, devices,
):
    config = HardwareConfig(gpu_memory_bytes=graph.edge_data_bytes // 2).with_devices(devices)
    system = system_cls(graph, config=config)
    kwargs = {} if source is None else {"source": source}
    result = system.run(algorithm_cls(), **kwargs)
    assert result.extra["backend"] == kernel_backend

    case = reference["cases"]["%s/%s/%ddev" % (system_key, algorithm_key, devices)]
    current = fingerprint(result)
    assert current["values_sha256"] == case["values_sha256"], "per-vertex values changed"
    assert current["values_dtype"] == case["values_dtype"]
    assert current["iteration_times_hex"] == case["iteration_times_hex"], (
        "per-iteration simulated times changed"
    )
    assert current["total_transfer_bytes"] == case["total_transfer_bytes"]
    assert current["total_interconnect_bytes"] == case["total_interconnect_bytes"]
    assert current["num_iterations"] == case["num_iterations"]
    assert current["converged"] == case["converged"]


def test_fixture_covers_the_full_grid(reference):
    assert len(reference["cases"]) == len(SYSTEMS) * len(ALGORITHMS) * len(DEVICE_COUNTS)
