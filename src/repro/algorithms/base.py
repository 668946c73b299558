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
``partition_delta``  the contribution mass of a vertex range (used by the
                     Δ-driven priority scheduler)

``process`` is deliberately restrictable to a subset of active vertices:
that is how the systems model partition-at-a-time processing, asynchronous
multi-round re-processing of loaded subgraphs, and priority scheduling,
all while the final answer stays exact.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = ["ProgramState", "VertexProgram", "gather_edge_indices", "single_vertex"]


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


def gather_edge_indices(graph: CSRGraph, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Edge-array indices and repeated sources for the given vertices.

    Returns ``(edge_indices, sources)`` where ``edge_indices`` selects every
    out-edge of every vertex in ``vertices`` from the CSR edge arrays and
    ``sources`` repeats each vertex once per such edge.  This is the
    vectorised equivalent of the scatter phase of a push-based GPU kernel.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    if vertices.size == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    starts = graph.row_offset[vertices]
    degrees = graph.row_offset[vertices + 1] - starts
    total = int(degrees.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    # Standard CSR gather: for each vertex, emit starts[v] + 0..deg-1.  One
    # repeat of the per-vertex shift (starts minus the running output
    # offset) added to a single arange produces all edge indices at once.
    cumulative = np.cumsum(degrees)
    shifts = np.repeat(starts - (cumulative - degrees), degrees)
    edge_indices = np.arange(total, dtype=np.int64) + shifts
    sources = np.repeat(vertices, degrees)
    return edge_indices, sources


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
    #: Whether the algorithm is accumulative (Δ-based) rather than
    #: value-replacement; accumulative programs drive Δ-priority scheduling.
    accumulative: bool = False
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
        the sender).
        """

    @abstractmethod
    def vertex_result(self, state: ProgramState) -> np.ndarray:
        """The final per-vertex output (distances, labels, ranks, ...)."""

    # ------------------------------------------------------------------
    # Optional hooks
    # ------------------------------------------------------------------
    def partition_delta(self, graph: CSRGraph, state: ProgramState, vertex_start: int, vertex_end: int) -> float:
        """Contribution mass of the vertex range (Δ-driven priority).

        Value-replacement programs return 0 by default; accumulative
        programs return the pending residual mass in the range.
        """
        return 0.0

    def validate_source(self, graph: CSRGraph, source: int | None) -> int | None:
        """Check and normalise the source argument."""
        if self.needs_source:
            if source is None:
                raise ValueError("%s requires a source vertex" % self.name)
            if not 0 <= source < graph.num_vertices:
                raise ValueError("source %d outside [0, %d)" % (source, graph.num_vertices))
        return source

    def check_graph(self, graph: CSRGraph) -> None:
        """Verify the graph satisfies the program's requirements."""
        if self.needs_weights and not graph.is_weighted:
            raise ValueError("%s requires a weighted graph" % self.name)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "%s()" % type(self).__name__
