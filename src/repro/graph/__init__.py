"""Graph substrate: CSR storage, generators, partitioning and reordering.

This package provides everything HyTGraph needs to know about the input
graph before and during processing:

* :mod:`repro.graph.csr` — the compressed-sparse-row structure the paper
  assumes (Figure 1): a ``row_offset`` index resident on the (simulated)
  GPU and ``column_index`` / ``edge_value`` arrays resident in host memory.
* :mod:`repro.graph.generators` — synthetic graph generators (RMAT,
  Chung-Lu power law, uniform, lattices) used as laptop-scale stand-ins for
  the paper's billion-edge datasets.
* :mod:`repro.graph.datasets` — named stand-ins for the five real-world
  graphs of Table IV (SK, TW, FK, UK, FS).
* :mod:`repro.graph.partition` — chunk-based edge-balanced partitioning of
  the edge-associated data (Section IV), held as one columnar partition
  table (:class:`Partitioning`) and its device sharding.
* :mod:`repro.graph.reorder` — hub sorting used by the contribution-driven
  priority scheduler (Section VI-A, Formula 4).
* :mod:`repro.graph.properties` — degree statistics (Figure 3f).
* :mod:`repro.graph.io` — edge-list and binary CSR persistence.

Active-vertex frontiers are plain boolean NumPy bitmaps of length
``num_vertices`` (see ``VertexProgram.initial_frontier``); per-partition
activeness is :meth:`Partitioning.active_counts` over such a bitmap.
"""

from repro.graph.csr import CSRGraph
from repro.graph.partition import (
    Partitioning,
    ShardedPartitioning,
    partition_by_bytes,
    partition_by_count,
)
from repro.graph.reorder import hub_scores, hub_sort_order, apply_vertex_order
from repro.graph.generators import (
    rmat_graph,
    power_law_graph,
    uniform_random_graph,
    grid_graph,
    path_graph,
    star_graph,
    complete_graph,
)
from repro.graph.datasets import DATASETS, DatasetSpec, load_dataset

__all__ = [
    "CSRGraph",
    "Partitioning",
    "ShardedPartitioning",
    "partition_by_bytes",
    "partition_by_count",
    "hub_scores",
    "hub_sort_order",
    "apply_vertex_order",
    "rmat_graph",
    "power_law_graph",
    "uniform_random_graph",
    "grid_graph",
    "path_graph",
    "star_graph",
    "complete_graph",
    "DATASETS",
    "DatasetSpec",
    "load_dataset",
]
