"""Graph persistence: edge-list text files and binary CSR bundles.

Real deployments of HyTGraph preprocess a downloaded edge list once
(partitioning + hub sorting) and reuse the binary CSR afterwards.  This
module provides the equivalent load/save plumbing so the examples can
demonstrate the full preprocess-then-run pipeline.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = ["save_edge_list", "load_edge_list", "save_csr", "load_csr"]


def save_edge_list(graph: CSRGraph, path: str | Path, include_weights: bool | None = None) -> None:
    """Write a graph as a whitespace-separated edge list.

    Each line is ``src dst`` or ``src dst weight`` (weights as ``repr``, so
    they reload exactly).  Lines starting with ``#`` are comments (SNAP
    convention); the first one records ``|V|`` so isolated trailing vertices
    survive a round trip.
    """
    path = Path(path)
    if include_weights is None:
        include_weights = graph.is_weighted
    with path.open("w", encoding="utf-8") as handle:
        handle.write("# %s |V|=%d |E|=%d\n" % (graph.name, graph.num_vertices, graph.num_edges))
        for src, dst, weight in graph.iter_edges():
            if include_weights:
                handle.write("%d %d %r\n" % (src, dst, weight))
            else:
                handle.write("%d %d\n" % (src, dst))


def load_edge_list(
    path: str | Path,
    num_vertices: int | None = None,
    weighted: bool | None = None,
    name: str | None = None,
) -> CSRGraph:
    """Read a whitespace-separated edge list written by :func:`save_edge_list`.

    Parameters
    ----------
    num_vertices:
        Total vertex count.  Defaults to the ``|V|=`` comment header when the
        file has one, else to ``max id + 1``.
    weighted:
        Force interpretation of a third column as weights.  If ``None`` the
        presence of a third column on the first data line decides.
    """
    path = Path(path)
    sources: list[int] = []
    destinations: list[int] = []
    weights: list[float] = []
    has_weights = weighted
    with path.open("r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#") or line.startswith("%"):
                header = re.search(r"\|V\|=(\d+)", line)
                if header and num_vertices is None:
                    num_vertices = int(header.group(1))
                continue
            parts = line.split()
            if has_weights is None:
                has_weights = len(parts) >= 3
            try:
                sources.append(int(parts[0]))
                destinations.append(int(parts[1]))
                if has_weights:
                    weights.append(float(parts[2]) if len(parts) >= 3 else 1.0)
            except (IndexError, ValueError):
                raise ValueError("%s:%d: expected 'src dst [weight]'" % (path, line_number)) from None
    return CSRGraph.from_endpoints(
        sources,
        destinations,
        num_vertices=num_vertices,
        weights=weights if has_weights and weights else None,
        name=name or path.stem,
    )


def save_csr(graph: CSRGraph, path: str | Path) -> None:
    """Save a graph as a compressed ``.npz`` CSR bundle."""
    path = Path(path)
    arrays = {
        "row_offset": graph.row_offset,
        "column_index": graph.column_index,
        "name": np.array(graph.name),
    }
    if graph.edge_value is not None:
        arrays["edge_value"] = graph.edge_value
    np.savez_compressed(path, **arrays)


def load_csr(path: str | Path) -> CSRGraph:
    """Load a graph saved by :func:`save_csr`."""
    path = Path(path)
    with np.load(path, allow_pickle=False) as bundle:
        edge_value = bundle["edge_value"] if "edge_value" in bundle else None
        name = str(bundle["name"]) if "name" in bundle else path.stem
        return CSRGraph(bundle["row_offset"], bundle["column_index"], edge_value, name=name)
