"""Named stand-ins for the paper's evaluation datasets (Table IV).

The paper evaluates on five real-world graphs:

========  ======  ======  ========  =====================================
name      |V|     |E|     |E|/|V|   kind
========  ======  ======  ========  =====================================
sk-2005   50.6M   1.93B   38        directed web graph (high locality)
twitter   52.5M   1.96B   37        directed social network
fk        68.3M   2.59B   37        undirected social network (konect)
uk-2007   105.1M  3.31B   31        directed web graph (high locality)
fs        65.6M   3.61B   55        undirected social network (snap)
========  ======  ======  ========  =====================================

These graphs are 28-58 GB and cannot be downloaded in this offline
environment, so :func:`load_dataset` synthesises *scaled-down stand-ins*
whose |E|/|V| ratio, directedness, and degree skew match the originals.
Web graphs use RMAT with a strongly diagonal parameterisation (which gives
the locality that makes ExpTM-filter and unified memory competitive on
SK/UK in the paper); social networks use Chung-Lu power-law graphs (heavier
hubs, lower locality, the regime where zero-copy wins).

The relative sizes between the five stand-ins preserve the paper's ordering
(SK and TW smallest, FS largest), which matters for Table V where SK fits
entirely in simulated GPU memory and the UM-based systems win on it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graph.csr import CSRGraph
from repro.graph.generators import power_law_graph, random_weights, rmat_graph

__all__ = ["DatasetSpec", "DATASETS", "DATASET_ALIASES", "load_dataset", "dataset_names"]


@dataclass(frozen=True)
class DatasetSpec:
    """Description of one stand-in dataset.

    Attributes
    ----------
    name:
        Canonical short name (``"SK"``, ``"TW"``, ...).
    full_name:
        The paper's dataset name the stand-in mimics.
    kind:
        ``"web"`` (RMAT, high locality) or ``"social"`` (power-law).
    num_vertices:
        Vertex count at ``scale=1.0``.
    average_degree:
        Target |E|/|V|, matching Table IV.
    directed:
        Whether the original graph is directed.
    seed:
        Generator seed so every run sees the same graph.
    """

    name: str
    full_name: str
    kind: str
    num_vertices: int
    average_degree: float
    directed: bool
    seed: int


# Vertex counts are chosen so the five graphs keep the paper's relative
# ordering by total edge volume: SK < TW < FK < UK < FS, with SK small
# enough to fit in the default simulated GPU memory (Section VII-B2).
DATASETS: dict[str, DatasetSpec] = {
    "SK": DatasetSpec("SK", "sk-2005", "web", 12_000, 38.0, True, 11),
    "TW": DatasetSpec("TW", "twitter", "social", 13_000, 37.0, True, 13),
    "FK": DatasetSpec("FK", "friendster-konect", "social", 17_000, 37.0, False, 17),
    "UK": DatasetSpec("UK", "uk-2007", "web", 26_000, 31.0, True, 19),
    "FS": DatasetSpec("FS", "friendster-snap", "social", 16_500, 55.0, False, 23),
}

DATASET_ALIASES: dict[str, str] = {
    "sk": "SK",
    "sk-2005": "SK",
    "sk2005": "SK",
    "tw": "TW",
    "twitter": "TW",
    "fk": "FK",
    "friendster-konect": "FK",
    "uk": "UK",
    "uk-2007": "UK",
    "uk2007": "UK",
    "fs": "FS",
    "friendster-snap": "FS",
}


def dataset_names() -> list[str]:
    """Canonical dataset names in the order the paper reports them."""
    return ["SK", "TW", "FK", "UK", "FS"]


def _resolve(name: str) -> DatasetSpec:
    canonical = DATASET_ALIASES.get(name.lower(), name.upper())
    if canonical not in DATASETS:
        raise KeyError(
            "unknown dataset %r; available: %s" % (name, ", ".join(sorted(DATASETS)))
        )
    return DATASETS[canonical]


def load_dataset(name: str, scale: float = 1.0, weighted: bool = False) -> CSRGraph:
    """Synthesise the named stand-in dataset.

    Parameters
    ----------
    name:
        One of ``SK``, ``TW``, ``FK``, ``UK``, ``FS`` (case-insensitive;
        the paper's full names are accepted as aliases).
    scale:
        Multiplier on the vertex count, used by tests to shrink graphs and
        by the benchmark harness to enlarge them.
    weighted:
        Attach uniform random integer weights (for SSSP workloads).
    """
    spec = _resolve(name)
    num_vertices = max(16, int(spec.num_vertices * scale))
    if spec.kind == "web":
        # A strongly diagonal RMAT keeps edges near the diagonal, which is
        # the locality property that makes whole-partition transfers and
        # page-granular unified memory efficient on web graphs.  The edge
        # budget is inflated to compensate for duplicate-edge removal so
        # the final |E|/|V| lands near the Table IV ratio.
        graph = rmat_graph(
            num_vertices,
            int(num_vertices * spec.average_degree * 1.6),
            a=0.65,
            b=0.15,
            c=0.15,
            seed=spec.seed,
            name=spec.name,
        )
    else:
        graph = power_law_graph(
            num_vertices,
            spec.average_degree,
            exponent=2.0,
            seed=spec.seed,
            directed=spec.directed,
            name=spec.name,
        )
    graph = CSRGraph(graph.row_offset, graph.column_index, None, name=spec.name)
    if weighted:
        graph = graph.with_weights(random_weights(graph.num_edges, seed=spec.seed + 100))
    return graph
