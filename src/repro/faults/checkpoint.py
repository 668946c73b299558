"""Query-state checkpoints for fault recovery.

A :class:`QueryCheckpoint` is a consistent snapshot of one query taken
at a super-iteration boundary: the program's per-vertex value arrays,
the frontier bitmap, the iteration counters and the system's per-query
scratch.  Device residency is not part of it: device memory does not
survive the faults that trigger a restore, so the cache layer rebuilds
it.  On a permanent fault (device loss) the runner restores every live
query from its last checkpoint and re-executes from there — the
vertex-program semantics are deterministic and device-count independent,
so re-execution converges to values bitwise identical to a fault-free
run (the chaos grid asserts exactly that).

Costs are billed into the simulated timeline: capturing is one
device-to-host copy of the state bytes over PCIe, restoring is the same
copy back.  The submit-time checkpoint is free — the host still holds
the initial state, nothing has to cross PCIe for it.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from repro.algorithms.base import ProgramState

__all__ = ["QueryCheckpoint"]


@dataclass
class QueryCheckpoint:
    """One query's recoverable state at a super-iteration boundary.

    Attributes
    ----------
    iteration:
        The session's outer-iteration counter at capture time.
    recorded_iterations:
        How many :class:`~repro.metrics.results.IterationStats` records
        the session's result held at capture time; restore truncates the
        record list back to this length so rolled-back iterations leave
        no trace (their re-execution is recorded fresh).
    state / pending:
        Deep copies of the per-vertex value arrays and the frontier
        bitmap.
    scratch:
        Deep copy of the session's system-specific scratch state.
    checkpoint_bytes:
        Bytes one capture/restore moves across PCIe.
    """

    iteration: int
    recorded_iterations: int
    state: ProgramState
    pending: np.ndarray
    scratch: dict
    checkpoint_bytes: int

    @classmethod
    def capture(cls, session) -> "QueryCheckpoint":
        """Snapshot ``session`` (a :class:`~repro.runtime.driver.QuerySession`)."""
        state = session.state.copy()
        pending = session.pending.copy()
        nbytes = sum(array.nbytes for array in state.arrays.values()) + pending.nbytes
        return cls(
            iteration=session.iteration,
            recorded_iterations=len(session.result.iterations),
            state=state,
            pending=pending,
            scratch=copy.deepcopy(session.scratch),
            checkpoint_bytes=int(nbytes),
        )

    def transfer_seconds(self, config) -> float:
        """Simulated seconds one capture/restore copy spends on PCIe."""
        return self.checkpoint_bytes / config.pcie_bandwidth

    def restore(self, session, config=None) -> float:
        """Roll ``session`` back to this checkpoint; returns the billed seconds.

        The checkpoint itself stays intact (arrays are copied back out),
        so one checkpoint can serve several restores.  With ``config``
        the host-to-device copy is priced at PCIe bandwidth; without it
        the restore is free (used by state-only tests).
        """
        session.state = self.state.copy()
        session.pending = self.pending.copy()
        session.iteration = self.iteration
        del session.result.iterations[self.recorded_iterations :]
        session.scratch = copy.deepcopy(self.scratch)
        return 0.0 if config is None else self.transfer_seconds(config)
