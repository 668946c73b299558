"""Graph property statistics used by the analysis figures.

Figure 3(f) of the paper plots the out-degree distribution of the five
evaluation graphs in buckets ``[0,8), [8,16), [16,24), [24,32), [32,inf)``
to show that most real-world vertices cannot saturate a 128-byte zero-copy
memory request.  This module computes those statistics plus a few generic
summaries used in reports and tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = [
    "PAPER_DEGREE_BUCKETS",
    "degree_bucket_fractions",
    "GraphSummary",
    "summarize",
]

# The bucket edges of Figure 3(f).
PAPER_DEGREE_BUCKETS: tuple[int, ...] = (0, 8, 16, 24, 32)


def degree_bucket_fractions(graph: CSRGraph) -> dict[str, float]:
    """Fraction of vertices falling in each degree bucket of Figure 3(f).

    Returns a mapping from a human-readable bucket label (``"[0,8)"``,
    ..., ``"[32,inf)"``) to the fraction of vertices in that bucket.
    Fractions sum to 1 for non-empty graphs.
    """
    degrees = graph.out_degrees
    if degrees.size == 0:
        return {}
    edges = list(PAPER_DEGREE_BUCKETS) + [np.inf]
    fractions: dict[str, float] = {}
    for low, high in zip(edges[:-1], edges[1:]):
        label = "[%d,%s)" % (low, "inf" if np.isinf(high) else str(int(high)))
        in_bucket = np.count_nonzero((degrees >= low) & (degrees < high))
        fractions[label] = in_bucket / degrees.size
    return fractions


@dataclass(frozen=True)
class GraphSummary:
    """Headline statistics of a graph (the Table IV columns)."""

    name: str
    num_vertices: int
    num_edges: int
    average_degree: float
    max_out_degree: int
    max_in_degree: int
    edge_data_bytes: int
    fraction_below_32: float

    def as_row(self) -> dict[str, object]:
        """Dictionary form used by the benchmark table formatter."""
        return {
            "dataset": self.name,
            "|V|": self.num_vertices,
            "|E|": self.num_edges,
            "|E|/|V|": round(self.average_degree, 1),
            "max Do": self.max_out_degree,
            "max Di": self.max_in_degree,
            "edge MB": round(self.edge_data_bytes / (1024 * 1024), 2),
            "deg<32": round(self.fraction_below_32, 3),
        }


def summarize(graph: CSRGraph) -> GraphSummary:
    """Compute a :class:`GraphSummary` for ``graph``."""
    degrees = graph.out_degrees
    fraction_below_32 = float(np.count_nonzero(degrees < 32) / degrees.size) if degrees.size else 0.0
    return GraphSummary(
        name=graph.name,
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        average_degree=graph.average_degree,
        max_out_degree=int(degrees.max()) if degrees.size else 0,
        max_in_degree=int(graph.in_degrees.max()) if graph.num_vertices else 0,
        edge_data_bytes=graph.edge_data_bytes,
        fraction_below_32=fraction_below_32,
    )
