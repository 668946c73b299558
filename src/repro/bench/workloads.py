"""Workload construction shared by the benchmark drivers.

A *workload* is one (dataset, algorithm) cell of the paper's evaluation
grid: the stand-in graph (weighted for SSSP, symmetrized for CC), the
traversal source, and a hardware configuration whose GPU memory is scaled
by the same factor as the graph so that the oversubscription regime of the
original experiment is preserved (e.g. the SK edge array fits in device
memory, the other graphs do not — Section VII-B2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.algorithms import make_algorithm
from repro.algorithms.base import VertexProgram
from repro.graph.csr import CSRGraph
from repro.graph.datasets import DATASETS, dataset_names, load_dataset
from repro.metrics.results import RunResult
from repro.sim.config import GPU_PRESETS, HardwareConfig, gtx_2080ti
from repro.systems import make_system

__all__ = [
    "PAPER_EDGE_COUNTS",
    "Workload",
    "paper_datasets",
    "scaled_config_for",
    "batch_sources",
    "build_workload",
]

# Edge counts of the original datasets (Table IV), used to scale the
# simulated GPU memory by the same factor as the stand-in graphs.
PAPER_EDGE_COUNTS: dict[str, float] = {
    "SK": 1.93e9,
    "TW": 1.96e9,
    "FK": 2.59e9,
    "UK": 3.31e9,
    "FS": 3.61e9,
}

# Default stand-in scale used by the benchmarks (1.0 = the sizes declared
# in repro.graph.datasets, already laptop friendly).
DEFAULT_SCALE = 1.0

# Bytes of vertex-associated GPU state per vertex (values, frontier flags,
# neighbor index, degrees, priority, double-buffered frontier queues).
# Subtracted from the scaled device
# Memory before it is offered as edge cache, mirroring how the real
# systems lose part of the 11 GB to vertex data and runtime buffers.
VERTEX_FOOTPRINT_BYTES = 48


@dataclass
class Workload:
    """One (dataset, algorithm) experiment cell."""

    dataset: str
    algorithm: str
    graph: CSRGraph
    program: VertexProgram
    source: int | None
    config: HardwareConfig

    def run(self, system_name: str, **system_kwargs) -> RunResult:
        """One solo run of this cell on a freshly built named system.

        ``system_kwargs`` are the system constructor's (``options=``,
        ``num_partitions=``, ``cache_policy=``, ...).  Serving — batches,
        priorities, deadlines, admission — is
        :class:`repro.service.GraphService` over ``graph``/``config``.
        """
        system = make_system(system_name, self.graph, config=self.config, **system_kwargs)
        return system.run(self.program, source=self.source)


def paper_datasets() -> list[str]:
    """The five dataset names in the paper's reporting order."""
    return dataset_names()


def scaled_config_for(
    graph: CSRGraph,
    dataset: str | None = None,
    preset: HardwareConfig | str | None = None,
) -> HardwareConfig:
    """Hardware config with device memory scaled to the stand-in graph.

    The scale factor is ``stand-in edges / paper edges`` for known datasets
    and is chosen so roughly half the edge data fits for unknown graphs
    (the generic oversubscription regime the paper targets).
    """
    if isinstance(preset, str):
        config = GPU_PRESETS[preset]
    else:
        config = preset or gtx_2080ti()
    vertex_bytes = graph.num_vertices * VERTEX_FOOTPRINT_BYTES
    if dataset is not None and dataset.upper() in PAPER_EDGE_COUNTS:
        scale = graph.num_edges / PAPER_EDGE_COUNTS[dataset.upper()]
        scaled = config.scaled(scale)
        return scaled.with_gpu_memory(max(1, scaled.gpu_memory_bytes - vertex_bytes))
    # Unknown graph: give the device room for about half the edge data and
    # scale the fixed overheads as if it were a mid-sized paper graph.
    generic_scale = graph.num_edges / 2.5e9
    scaled = config.scaled(max(generic_scale, 1e-9))
    return scaled.with_gpu_memory(max(1, graph.edge_data_bytes // 2))


def pick_source(graph: CSRGraph) -> int:
    """Traversal source: the highest-out-degree vertex (deterministic, well connected)."""
    if graph.num_vertices == 0:
        raise ValueError("cannot pick a source in an empty graph")
    return int(np.argmax(graph.out_degrees))


def batch_sources(graph: CSRGraph, count: int, seed: int | None = None) -> list[int]:
    """``count`` distinct traversal sources for a multi-query batch.

    Without a ``seed``: the top out-degree vertices, like
    :func:`pick_source` — deterministic and well connected.  With a
    ``seed``: a seed-deterministic sample of distinct vertices that have
    at least one out-edge (falling back to all vertices when the graph
    has fewer such), so batch benchmarks get *divergent* working sets
    that are still reproducible run-to-run.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    if count > graph.num_vertices:
        raise ValueError(
            "cannot pick %d distinct sources in a %d-vertex graph" % (count, graph.num_vertices)
        )
    if seed is None:
        order = np.argsort(-graph.out_degrees, kind="stable")
        return [int(vertex) for vertex in order[:count]]
    candidates = np.flatnonzero(graph.out_degrees > 0)
    if candidates.size < count:
        candidates = np.arange(graph.num_vertices)
    rng = np.random.default_rng(seed)
    chosen = rng.choice(candidates, size=count, replace=False)
    return [int(vertex) for vertex in np.sort(chosen)]


def build_workload(
    dataset: str,
    algorithm: str,
    scale: float = DEFAULT_SCALE,
    preset: HardwareConfig | str | None = None,
    graph: CSRGraph | None = None,
    num_devices: int = 1,
    interconnect: str | None = None,
) -> Workload:
    """Build one experiment cell.

    SSSP gets a weighted graph; CC gets the symmetrized graph (weakly
    connected components); other algorithms use the directed, unweighted
    stand-in.  A pre-built ``graph`` can be supplied to share loading
    across several workloads (the Figure 9 RMAT sweep does this).

    ``num_devices > 1`` attaches that many GPUs of the (scaled) preset —
    each keeps the full scaled per-device memory, so aggregate device
    memory grows with the device count — over the named ``interconnect``
    (``"nvlink"`` or ``"pcie-peer"``).
    """
    algorithm_key = algorithm.lower()
    program = make_algorithm(algorithm_key)
    if graph is None:
        weighted = program.needs_weights
        graph = load_dataset(dataset, scale=scale, weighted=weighted)
    elif program.needs_weights and not graph.is_weighted:
        from repro.graph.generators import random_weights

        graph = graph.with_weights(random_weights(graph.num_edges, seed=7))
    if algorithm_key == "cc":
        graph = graph.symmetrize()
        graph = CSRGraph(graph.row_offset, graph.column_index, graph.edge_value, name=dataset)
    source = pick_source(graph) if program.needs_source else None
    if isinstance(preset, str):
        preset = GPU_PRESETS[preset]
    if num_devices != 1 or interconnect is not None:
        # Attach the devices before scaling so the interconnect latency is
        # scaled down together with the other fixed per-event overheads.
        preset = (preset or gtx_2080ti()).with_devices(num_devices, interconnect)
    config = scaled_config_for(graph, dataset if dataset.upper() in DATASETS else None, preset)
    return Workload(
        dataset=dataset,
        algorithm=program.name,
        graph=graph,
        program=program,
        source=source,
        config=config,
    )
