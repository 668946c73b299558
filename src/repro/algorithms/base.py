"""Push-based vertex-centric programming API.

Section II-A describes the model: in every iteration each *active* vertex
sends a message along its out-edges; the receiving vertex combines the
incoming messages with its current value and becomes active for the next
iteration if its value changed.  Two combine styles appear in the paper:

* **value replacement** (min-combine) — SSSP, BFS, CC;
* **value accumulation** (sum-combine over a Δ/residual) — PageRank, PHP.

:class:`VertexProgram` exposes exactly the operations the simulated
systems need:

``create_state``     per-vertex arrays (distances, ranks, residuals, ...)
``initial_frontier`` the initially active vertices
``process``          push updates from a given set of active vertices,
                     mutating the state in place and returning the ids of
                     the vertices activated by those updates
``vertex_result``    the per-vertex answer once converged
``residual``         the state array holding an accumulative program's
                     pending residual (Δ); the Δ-driven priority scheduler
                     reads its per-partition mass

``process`` is deliberately restrictable to a subset of active vertices:
that is how the systems model partition-at-a-time processing, asynchronous
multi-round re-processing of loaded subgraphs, and priority scheduling,
all while the final answer stays exact.

Every ``process`` reads its senders' out-edges through :func:`out_edges`,
which returns the destinations (and weights) of one message slot per
edge plus each sender's out-degree; :meth:`OutEdges.spread` turns a
per-sender quantity into per-edge messages.  Because the systems hand
``process`` the pending vertices of contiguous partition ranges, most
calls read one CSR edge span in place: a contiguous id run returns views
of the span, and so does a sorted set whose edges fill at least
``1 / SPAN_DENSITY`` of its span — the edges of the span's non-senders
then carry the combine's identity (``+inf`` for min, ``-inf`` for max,
``-0.0`` for add), as an ExpTM-filter partition ships whole and lets the
threads of inactive vertices idle.  Only genuinely sparse, unsorted or
duplicated input gathers per-edge indices.  An identity message changes
no target bit and activates nothing (see :mod:`repro.core.backends`),
and every real message keeps its order, so every value, every scatter
fold order and every simulated number is independent of the regime.

**Stacked rows.**  ``process`` also runs K queries of one program at
once (the HyTGraph engine's fused batch waves): every state array is K
per-query arrays laid end to end (``K x |V|`` flattened row-major) and
the active ids are flat, ``r * |V| + v``, strictly ascending.
:func:`out_edges` then returns flat destinations in the sender's row, so
a scatter into the stacked state never mixes rows, and each row's
messages keep the order a one-row call would emit them in: per-query
values stay bitwise.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = ["OutEdges", "ProgramState", "VertexProgram", "out_edges", "single_vertex", "SPAN_DENSITY"]

#: A strictly ascending vertex set pushes its whole CSR edge span
#: ``row_offset[v_first]:row_offset[v_last + 1]``, padded, when its own
#: edges fill at least ``1 / SPAN_DENSITY`` of the span.  Against the index
#: gather, a padded ``process`` on the SK stand-in (12k vertices, 422k
#: edges) breaks even at a fill of about 0.5 for SSSP and BFS and about 0.6
#: for Δ-PageRank, and takes 55-80% of the gather's time at 0.8.
SPAN_DENSITY = 2


@dataclass
class ProgramState:
    """Mutable per-vertex state of one run of a vertex program."""

    arrays: dict[str, np.ndarray] = field(default_factory=dict)

    def __getitem__(self, key: str) -> np.ndarray:
        return self.arrays[key]

    def __setitem__(self, key: str, value: np.ndarray) -> None:
        self.arrays[key] = value

    def __contains__(self, key: str) -> bool:
        return key in self.arrays

    def copy(self) -> "ProgramState":
        """Deep copy (used by tests to compare engine execution orders)."""
        return ProgramState({key: np.array(value, copy=True) for key, value in self.arrays.items()})


class OutEdges(NamedTuple):
    """The out-edges of a sender set, as :func:`out_edges` returns them.

    ``destinations`` (and ``weights``, or ``None``) hold one message slot
    per edge, each sender's edges in CSR order; ``degrees[i]`` is the
    out-degree of the ``i``-th sender.  The edges are either exactly the
    senders' own (``members is None``: ``counts`` is ``degrees``) or the
    whole CSR span of a span-dense sender set, whose ``counts`` are the
    out-degrees of every vertex in the span and ``members`` the senders'
    positions in it.  :meth:`spread` lines per-sender values up with the
    edges either way.
    """

    destinations: np.ndarray
    weights: np.ndarray | None
    degrees: np.ndarray
    counts: np.ndarray
    members: np.ndarray | None

    def spread(self, values: np.ndarray, identity: float) -> np.ndarray:
        """Per-edge messages from per-sender ``values``.

        Each sender's value fills its edges; the edges of a span vertex
        that is not a sender carry ``identity``, which must leave every
        target unchanged under the program's combine (``+inf`` for min,
        ``-inf`` for max, ``-0.0`` for add).
        """
        if self.members is None:
            return values.repeat(self.counts)
        padded = np.full(self.counts.size, identity, dtype=values.dtype)
        padded[self.members] = values
        return padded.repeat(self.counts)


def out_edges(graph: CSRGraph, vertices: np.ndarray, weighted: bool = False) -> OutEdges:
    """The out-edges of ``vertices`` (see :class:`OutEdges`).

    Senders' edges come in input order, each sender's in CSR order; a
    span-dense set also carries the edges of the non-senders in its span,
    which :meth:`OutEdges.spread` fills with the combine's identity.  This
    is the vectorised gather phase of a push-based GPU kernel.  Strictly
    ascending flat ids of stacked rows (``r * |V| + v``, see the module
    docstring) yield flat destinations ``r * |V| + u``.  The result may be
    a view of the graph's edge arrays: read it, never write it.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    row_offset = graph.row_offset
    # Most calls are small, so this uses slice differences and ndarray
    # methods rather than the slower-to-call np.diff / np.cumsum.
    #
    # The span regime needs strictly ascending ids: a permuted or duplicated
    # set can cover the same span but pairs its values with the wrong edges.
    ascending = vertices.size > 0 and bool((vertices[1:] > vertices[:-1]).all())
    if ascending:
        first, last = int(vertices[0]), int(vertices[-1])
        if last >= graph.num_vertices:
            return _stacked_out_edges(graph, vertices, weighted)
        span_offsets = row_offset[first : last + 2]
        span = slice(span_offsets[0], span_offsets[-1])
        if last - first + 1 == vertices.size:
            # A contiguous id run: its edges are the whole span.
            degrees = span_offsets[1:] - span_offsets[:-1]
            weights = graph.edge_value[span] if weighted else None
            return OutEdges(graph.column_index[span], weights, degrees, degrees, None)
    starts = row_offset[vertices]
    degrees = row_offset[vertices + 1] - starts
    ends = degrees.cumsum()
    total = int(ends[-1]) if ends.size else 0
    if ascending and SPAN_DENSITY * total >= span.stop - span.start:
        # Dense in its span: push the whole span, padded with identities.
        weights = graph.edge_value[span] if weighted else None
        span_degrees = span_offsets[1:] - span_offsets[:-1]
        return OutEdges(graph.column_index[span], weights, degrees, span_degrees, vertices - first)
    # Sparse, unsorted or duplicated: for each vertex, emit starts[v] +
    # 0..deg-1.  One repeat of the per-vertex shift (starts minus the
    # running output offset) added to one arange gives every edge index.
    edge_indices = np.arange(total, dtype=np.int64) + (starts - (ends - degrees)).repeat(degrees)
    weights = graph.edge_value[edge_indices] if weighted else None
    return OutEdges(graph.column_index[edge_indices], weights, degrees, degrees, None)


def _stacked_out_edges(graph: CSRGraph, vertices: np.ndarray, weighted: bool) -> OutEdges:
    """:func:`out_edges` of strictly ascending flat ids spanning rows > 0."""
    num_vertices = graph.num_vertices
    first_row = int(vertices[0]) // num_vertices
    if first_row == int(vertices[-1]) // num_vertices:
        # One row: its local ids keep every one-row regime.
        base = first_row * num_vertices
        edges = out_edges(graph, vertices - base, weighted)
        return edges._replace(destinations=edges.destinations + base)
    # Several rows: gather per-edge indices from the local ids, then shift
    # each destination into its sender's row.
    rows, local = np.divmod(vertices, num_vertices)
    row_offset = graph.row_offset
    starts = row_offset[local]
    degrees = row_offset[local + 1] - starts
    ends = degrees.cumsum()
    edge_indices = np.arange(int(ends[-1]), dtype=np.int64) + (starts - (ends - degrees)).repeat(degrees)
    destinations = graph.column_index[edge_indices]
    destinations += (rows * num_vertices).repeat(degrees)
    weights = graph.edge_value[edge_indices] if weighted else None
    return OutEdges(destinations, weights, degrees, degrees, None)


def single_vertex(num_vertices: int, vertex: int) -> np.ndarray:
    """A frontier bitmap with only ``vertex`` active (BFS/SSSP/PHP source)."""
    mask = np.zeros(num_vertices, dtype=bool)
    mask[vertex] = True
    return mask


class VertexProgram(ABC):
    """Base class of all vertex-centric algorithms."""

    #: Short name used in reports ("SSSP", "PR", ...).
    name: str = "program"
    #: Whether the algorithm reads edge weights (SSSP does, the rest do not).
    needs_weights: bool = False
    #: The state array holding the pending residual (Δ) of an
    #: accumulative program, ``None`` for value-replacement programs; its
    #: per-partition mass drives Δ-priority scheduling.
    residual: str | None = None
    #: Whether the algorithm needs a source vertex (SSSP/BFS/PHP do).
    needs_source: bool = False
    #: Whether the algorithm's semantics assume a symmetric graph (CC
    #: computes *weakly* connected components, so the evaluation grid
    #: symmetrizes its graph; serving entry points refuse a directed one
    #: instead of silently returning different labels).
    needs_symmetric: bool = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @abstractmethod
    def create_state(self, graph: CSRGraph, source: int | None = None) -> ProgramState:
        """Allocate and initialise the per-vertex state arrays."""

    @abstractmethod
    def initial_frontier(self, graph: CSRGraph, state: ProgramState, source: int | None = None) -> np.ndarray:
        """The initially active vertices, as a fresh boolean bitmap."""

    @abstractmethod
    def process(self, graph: CSRGraph, state: ProgramState, active_vertices: np.ndarray) -> np.ndarray:
        """Push updates from ``active_vertices``.

        Mutates ``state`` in place and returns the (unique, sorted) ids of
        vertices whose value changed — i.e. the vertices these pushes
        activated.  A vertex may activate itself only if its own value
        changed as a side effect (accumulative programs never re-activate
        the sender).  ``state`` may stack K queries of this program (see
        the module docstring): ``active_vertices`` and the returned ids
        are then flat ``r * |V| + v`` ids, and every row is pushed exactly
        as a one-row call would push it.
        """

    @abstractmethod
    def vertex_result(self, state: ProgramState) -> np.ndarray:
        """The final per-vertex output (distances, labels, ranks, ...)."""

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate_source(self, graph: CSRGraph, source: int | None) -> int | None:
        """Check and normalise the source argument."""
        if self.needs_source:
            if source is None:
                raise ValueError("%s requires a source vertex" % self.name)
            if isinstance(source, bool) or not isinstance(source, (int, np.integer)):
                raise ValueError("source must be an integer vertex id, got %r" % (source,))
            if not 0 <= source < graph.num_vertices:
                raise ValueError("source %d outside [0, %d)" % (source, graph.num_vertices))
        return source

    def check_graph(self, graph: CSRGraph) -> None:
        """Verify the graph satisfies the program's requirements."""
        if self.needs_weights and not graph.is_weighted:
            raise ValueError("%s requires a weighted graph" % self.name)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "%s()" % type(self).__name__
