"""Device-agnostic execution runtime and multi-query serving layer.

The runtime collapses the historical single-device / multi-device twin
code paths into one substrate:

* :class:`~repro.runtime.context.ExecutionContext` — devices, shards,
  the device-memory cache (:mod:`repro.cache`), the transfer window
  that decides what is already on a device, and the shared-host
  scheduler, built once per session; ``num_devices == 1`` is the
  trivial (one-shard, zero-sync) case of the sharded path, not a
  separate branch.
* :class:`~repro.runtime.driver.IterationDriver` — turns per-iteration
  :class:`~repro.runtime.driver.IterationPlan`s (per-device stream-task
  lists + remote-activation counts) into scheduled timelines and filled
  :class:`~repro.metrics.results.IterationStats`.
* :class:`~repro.runtime.batch.QueryBatchRunner` — serves K concurrent
  queries on one warmed session, amortizing residency and
  whole-partition transfers across queries and co-scheduling their
  iterations over the shared stream/PCIe resources.
"""

from repro.runtime.batch import QueryBatchRunner
from repro.runtime.context import ExecutionContext, MultiDeviceScheduler
from repro.runtime.driver import (
    FrontierSnapshot,
    IterationDriver,
    IterationPlan,
    QuerySession,
)

__all__ = [
    "ExecutionContext",
    "MultiDeviceScheduler",
    "IterationDriver",
    "IterationPlan",
    "FrontierSnapshot",
    "QuerySession",
    "QueryBatchRunner",
]
