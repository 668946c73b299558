"""The numpy kernel backend — always available, the bitwise reference.

Performance architecture
------------------------
Every push-based vertex program in this reproduction boils down to one
scatter-reduce: a batch of ``(destination, value)`` messages is combined
into a per-vertex state array, either by **minimum** (SSSP, BFS, CC — value
replacement) or by **sum** (PageRank, PHP — value accumulation), followed by
*activation detection* — which destinations changed enough to join the next
frontier.

The scatter itself is ``np.<ufunc>.at``: NumPy >= 1.25 ships indexed inner
loops that run it at native scatter speed (hence the ``numpy>=1.25`` floor),
and it *defines* the unbuffered left-to-right fold every backend must
reproduce bit for bit.

:func:`push_and_activate` picks one of two activation formulations from the
input size.  A batch with at least one message per
:data:`DENSE_FRONTIER_FACTOR` vertices is *dense*: it amortises O(|V|)
work, so the activation set comes from a touched-vertex bitmap (no sort at
all).  Sparse batches never touch |V|-sized temporaries: they compare each
message's destination before and after the scatter and ``np.unique`` the
ones that qualify.  Both give exactly the activation set of the seed's
snapshot + ``np.unique`` formulation.

All kernels mutate ``target`` in place and expect ``float64`` state arrays
(every :class:`~repro.algorithms.base.ProgramState` array is ``float64``).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "NumpyBackend",
    "scatter_add",
    "scatter_min",
    "scatter_max",
    "push_and_activate",
    "DENSE_FRONTIER_FACTOR",
]

_EMPTY = np.zeros(0, dtype=np.int64)

#: A message batch counts as *dense* when it holds at least one message per
#: ``DENSE_FRONTIER_FACTOR`` vertices; dense batches amortise O(|V|) bitmap
#: work, sparse batches avoid it entirely.
DENSE_FRONTIER_FACTOR = 8


def _is_dense(destinations: np.ndarray, target: np.ndarray) -> bool:
    return destinations.size * DENSE_FRONTIER_FACTOR >= target.size


def _touched_ids(destinations: np.ndarray, num_vertices: int) -> np.ndarray:
    """Unique destination ids via a bitmap (no sort; ascending by construction)."""
    touched = np.zeros(num_vertices, dtype=bool)
    touched[destinations] = True
    return np.flatnonzero(touched)


def scatter_add(target: np.ndarray, destinations: np.ndarray, values: np.ndarray) -> np.ndarray:
    """In-place ``target[destinations] += values`` with duplicate support."""
    np.add.at(target, destinations, values)
    return target


def scatter_min(target: np.ndarray, destinations: np.ndarray, values: np.ndarray) -> np.ndarray:
    """In-place ``target[d] = min(target[d], v)`` over all messages."""
    np.minimum.at(target, destinations, values)
    return target


def scatter_max(target: np.ndarray, destinations: np.ndarray, values: np.ndarray) -> np.ndarray:
    """In-place ``target[d] = max(target[d], v)`` over all messages."""
    np.maximum.at(target, destinations, values)
    return target


def push_and_activate(
    target: np.ndarray,
    destinations: np.ndarray,
    values: np.ndarray,
    *,
    combine: str = "min",
    threshold: float | None = None,
) -> np.ndarray:
    """Fused scatter + activation detection.

    Applies one scatter-reduce to ``target`` in place and returns the
    unique, sorted ids of the vertices the pushes activated:

    * ``combine="min"`` / ``combine="max"`` (value replacement): the
      destinations whose value strictly improved.
    * ``combine="add"`` (value accumulation): the destinations whose
      updated value exceeds ``threshold`` (required).

    This is the operation every ``VertexProgram.process`` performs; fusing
    it lets dense frontiers derive the activation set from a touched-vertex
    bitmap instead of an ``np.unique`` over the per-message arrays.
    """
    destinations = np.asarray(destinations, dtype=np.int64)
    if destinations.size == 0:
        return _EMPTY
    if combine == "add":
        if threshold is None:
            raise ValueError("combine='add' requires a threshold")
        values = np.asarray(values, dtype=np.float64)
        if _is_dense(destinations, target):
            touched_ids = _touched_ids(destinations, target.size)
            np.add.at(target, destinations, values)
            return touched_ids[target[touched_ids] > threshold]
        np.add.at(target, destinations, values)
        return np.unique(destinations[target[destinations] > threshold])
    if combine == "min":
        ufunc, improved = np.minimum, np.less
    elif combine == "max":
        ufunc, improved = np.maximum, np.greater
    else:
        raise ValueError("combine must be 'min', 'max' or 'add'")
    if _is_dense(destinations, target):
        touched_ids = _touched_ids(destinations, target.size)
        snapshot = target[touched_ids]
        ufunc.at(target, destinations, values)
        return touched_ids[improved(target[touched_ids], snapshot)]
    previous = target[destinations]
    ufunc.at(target, destinations, values)
    return np.unique(destinations[improved(target[destinations], previous)])


class NumpyBackend:
    """The reference :class:`~repro.core.backends.base.KernelBackend`.

    The methods *are* the module-level kernels — zero extra indirection on
    the hot path — and :meth:`warmup` is a no-op because there is nothing
    to compile.
    """

    name = "numpy"

    scatter_add = staticmethod(scatter_add)
    scatter_min = staticmethod(scatter_min)
    scatter_max = staticmethod(scatter_max)
    push_and_activate = staticmethod(push_and_activate)

    def warmup(self) -> None:
        return None
