"""Fault injection and recovery for the simulated serving stack.

The failure model every later scaling feature builds on:

* :class:`~repro.faults.spec.FaultSpec` /
  :class:`~repro.faults.spec.FaultSchedule` — typed, seed-deterministic
  descriptions of what goes wrong (device loss, transient transfer
  faults, memory pressure, interconnect degradation);
* :func:`~repro.faults.spec.backoff_seconds` — the fixed exponential
  backoff of transient-fault retries, billed into the simulated timeline;
* :class:`~repro.faults.injector.FaultInjector` — interprets a schedule
  at super-iteration and task boundaries;
* :class:`~repro.faults.checkpoint.QueryCheckpoint` — per-query state
  snapshots the runner restores from on permanent faults;
* :class:`~repro.faults.breaker.CircuitBreaker` — sheds BULK work after
  three consecutive faulty waves, resumes it after one clean wave.

The invariant the whole subsystem is built around: faults perturb
*time, placement and residency*, never vertex-program semantics — every
query that survives (with retries, rollback/re-execution, re-sharding
or host fallback) returns values bitwise identical to a fault-free run.
"""

from repro.faults.breaker import CircuitBreaker
from repro.faults.checkpoint import QueryCheckpoint
from repro.faults.injector import FaultInjector
from repro.faults.spec import MAX_ATTEMPTS, FaultKind, FaultSchedule, FaultSpec, backoff_seconds

__all__ = [
    "CircuitBreaker",
    "FaultInjector",
    "FaultKind",
    "FaultSchedule",
    "FaultSpec",
    "MAX_ATTEMPTS",
    "QueryCheckpoint",
    "backoff_seconds",
]
