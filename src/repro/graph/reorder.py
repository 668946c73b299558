"""Vertex reordering: hub sorting.

HyTGraph's contribution-driven priority scheduling (Section VI-A) relies on
*hub sorting* [Zhang et al., BigData 2017]: the top 8 % most important
vertices — scored by Formula 4,

    H(v) = Do(v) * Di(v) / (Do_max * Di_max)

— are gathered at the beginning of the CSR structure while all other
vertices keep their natural order.  Gathering the hubs has two effects the
paper calls out: (1) the hub partitions can be scheduled first so that hub
vertices accumulate contributions before their downstream neighbours are
computed, and (2) vertices with a high probability of being activated are
stored together, which sharpens the per-partition cost analysis.

Hub sorting is a preprocessing step: it is performed once per graph and
reused by every algorithm (Section VI-A, last paragraph).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = [
    "hub_scores",
    "hub_sort_order",
    "apply_vertex_order",
    "ReorderedGraph",
    "hub_sort",
]

DEFAULT_HUB_FRACTION = 0.08


def hub_scores(graph: CSRGraph) -> np.ndarray:
    """Importance score ``H(v)`` of every vertex (Formula 4).

    Vertices with both high out-degree (many downstream dependents) and
    high in-degree (high probability of being re-activated) score highest.
    Scores are in ``[0, 1]``; an isolated vertex scores 0.
    """
    out_degrees = graph.out_degrees.astype(np.float64)
    in_degrees = graph.in_degrees.astype(np.float64)
    max_out = out_degrees.max() if out_degrees.size else 0.0
    max_in = in_degrees.max() if in_degrees.size else 0.0
    denominator = max_out * max_in
    if denominator == 0:
        return np.zeros(graph.num_vertices, dtype=np.float64)
    return (out_degrees * in_degrees) / denominator


def hub_sort_order(graph: CSRGraph, hub_fraction: float = DEFAULT_HUB_FRACTION) -> np.ndarray:
    """Vertex order with the top ``hub_fraction`` hub vertices first.

    Returns an array ``order`` such that ``order[i]`` is the *original* id
    of the vertex placed at position ``i``.  Hubs are sorted by descending
    ``H(v)``; the remaining vertices keep their natural (ascending id)
    order, exactly as Section VI-A describes.
    """
    if not 0.0 <= hub_fraction <= 1.0:
        raise ValueError("hub_fraction must be in [0, 1]")
    scores = hub_scores(graph)
    num_hubs = int(round(graph.num_vertices * hub_fraction))
    if num_hubs == 0:
        return np.arange(graph.num_vertices, dtype=np.int64)
    # argpartition gives the top-k set; sort that set by descending score
    # (ties broken by vertex id for determinism).
    top = np.argpartition(-scores, num_hubs - 1)[:num_hubs]
    top = top[np.lexsort((top, -scores[top]))]
    hub_set = np.zeros(graph.num_vertices, dtype=bool)
    hub_set[top] = True
    rest = np.nonzero(~hub_set)[0]
    return np.concatenate([top, rest]).astype(np.int64)


@dataclass(frozen=True)
class ReorderedGraph:
    """A relabelled graph plus the mappings back to the original ids.

    Attributes
    ----------
    graph:
        The relabelled :class:`CSRGraph`.
    new_to_old:
        ``new_to_old[new_id] == original_id``.
    old_to_new:
        ``old_to_new[original_id] == new_id``.
    num_hubs:
        Number of hub vertices gathered at the front (0 if no hub sorting).
    """

    graph: CSRGraph
    new_to_old: np.ndarray
    old_to_new: np.ndarray
    num_hubs: int = 0

    def translate_to_new(self, vertex: int) -> int:
        """Original vertex id -> relabelled id."""
        return int(self.old_to_new[vertex])

    def values_in_original_order(self, values: np.ndarray) -> np.ndarray:
        """Map per-vertex results from relabelled order back to original ids."""
        restored = np.empty_like(values)
        restored[self.new_to_old] = values
        return restored


def apply_vertex_order(graph: CSRGraph, order: np.ndarray, num_hubs: int = 0) -> ReorderedGraph:
    """Relabel ``graph`` according to ``order`` and keep the id mappings."""
    order = np.asarray(order, dtype=np.int64)
    relabelled = graph.permute(order)
    old_to_new = np.empty(graph.num_vertices, dtype=np.int64)
    old_to_new[order] = np.arange(graph.num_vertices)
    return ReorderedGraph(graph=relabelled, new_to_old=order, old_to_new=old_to_new, num_hubs=num_hubs)


def hub_sort(graph: CSRGraph, hub_fraction: float = DEFAULT_HUB_FRACTION) -> ReorderedGraph:
    """Hub-sort a graph: gather the top hubs at the front of the CSR.

    Convenience wrapper combining :func:`hub_sort_order` and
    :func:`apply_vertex_order`.
    """
    order = hub_sort_order(graph, hub_fraction)
    num_hubs = int(round(graph.num_vertices * hub_fraction))
    return apply_vertex_order(graph, order, num_hubs=num_hubs)
