"""The runtime fault injector.

One :class:`FaultInjector` interprets a
:class:`~repro.faults.spec.FaultSchedule` against a running execution
session.  The runtime consults it at two boundaries:

* **super-iteration boundaries** — :meth:`begin_super_iteration` applies
  the one-shot faults due at this boundary directly to the
  :class:`~repro.runtime.context.ExecutionContext` (cache-budget
  shrinks, interconnect degradation) and returns the devices lost, so
  the caller can roll live queries back to their checkpoints;
* **task boundaries** — :meth:`perturb_transfers` walks the merged
  per-device stream-task lists in deterministic order and draws, per
  transfer-carrying task, the transient failures of the active
  ``transfer-flaky`` specs.  Failed attempts are retried under the
  :class:`~repro.faults.spec.RetryPolicy`: the re-sends and the
  exponential backoff are billed into the task's transfer time (hence
  into the simulated timeline), and a task that exhausts its attempts
  permanently fails the owning query.

Every random draw comes from one ``numpy`` generator seeded with the
schedule's seed, and the walk order is deterministic (devices, then
merged task order), so equal (schedule, workload) pairs inject equal
fault sequences — the property the chaos grid and the CI seed matrix
rely on.
"""

from __future__ import annotations

import numpy as np

from repro.faults.spec import FaultKind, FaultSchedule, RetryPolicy
from repro.obs.tracer import NULL_TRACER

__all__ = ["FaultInjector"]


class FaultInjector:
    """Applies one fault schedule to one execution session."""

    def __init__(self, schedule: FaultSchedule, retry: RetryPolicy | None = None):
        self.schedule = schedule
        self.retry = retry or RetryPolicy()
        self._rng = np.random.default_rng(schedule.seed)
        #: Next super-iteration index (one counter for the injector's
        #: lifetime: a service's waves share it, so ``@k`` means the
        #: k-th super-iteration the session executes overall).
        self._super = 0
        self._applied: set[int] = set()
        self._flaky_p = 0.0
        #: Chronological record of every injected fault (events feed the
        #: batch record and the CLI report).
        self.events: list[dict] = []
        self.faults_injected = 0
        self.retries = 0
        self.retry_time_s = 0.0
        #: Per-device fault counts (transfer faults on the device's
        #: tasks, plus its loss) — the service's device-health view.
        self.device_faults: dict[int, int] = {}
        #: Span sink for fault events (no-op unless a service installs a
        #: recording tracer; see :mod:`repro.obs`).
        self.tracer = NULL_TRACER
        #: Query-index → trace track, set by the batch runner around
        #: :meth:`perturb_transfers` so retries also land on the owning
        #: query's lane (``None`` = fault lane only).
        self.trace_tracks = None

    # ------------------------------------------------------------------
    # Super-iteration boundary
    # ------------------------------------------------------------------
    def begin_super_iteration(self, context) -> list[int]:
        """Apply the faults due at this boundary; return lost devices.

        Memory pressure and interconnect degradation mutate ``context``
        directly (they need no query-state recovery).  Device losses are
        applied to the context — shard remap, cache invalidation, host
        fallback — and *returned*, because the caller owns the query
        checkpoints the recovery rolls back to.
        """
        boundary = self._super
        self._super += 1
        lost: list[int] = []
        for position, spec in enumerate(self.schedule.specs):
            if spec.kind is FaultKind.TRANSFER_FLAKY:
                continue
            if spec.kind is FaultKind.HOST_LOSS:
                # Cluster-level fault: a single-host session has no host
                # to lose — the ClusterService interprets these instead
                # (and strips them from replica schedules).
                continue
            if position in self._applied or boundary < spec.at_super_iteration:
                continue
            self._applied.add(position)
            event = {"super_iteration": boundary, "kind": spec.kind.value}
            if spec.kind is FaultKind.DEVICE_LOSS:
                if context.host_fallback:
                    # Nothing left to lose; the session already runs on
                    # the host.  Record the no-op and move on.
                    event["skipped"] = "host fallback already active"
                else:
                    device = spec.device if spec.device is not None else context.num_devices - 1
                    device = min(device, context.num_devices - 1)
                    context.lose_device(device)
                    self.faults_injected += 1
                    self.device_faults[device] = self.device_faults.get(device, 0) + 1
                    event["device"] = device
                    lost.append(device)
            elif spec.kind is FaultKind.MEMORY_PRESSURE:
                context.shrink_cache_budget(spec.factor)
                self.faults_injected += 1
                event["factor"] = spec.factor
            elif spec.kind is FaultKind.INTERCONNECT_DEGRADE:
                context.degrade_interconnect(spec.factor)
                self.faults_injected += 1
                event["factor"] = spec.factor
            self.events.append(event)
            if self.tracer.enabled:
                self.tracer.instant("fault", event["kind"], track="faults", **{
                    key: value for key, value in event.items() if key != "kind"
                })
        # The transfer-failure probability active from this boundary on
        # (several flaky specs compose as the max).
        self._flaky_p = max(
            (
                spec.probability
                for spec in self.schedule.specs
                if spec.kind is FaultKind.TRANSFER_FLAKY
                and spec.at_super_iteration <= boundary
            ),
            default=0.0,
        )
        return lost

    # ------------------------------------------------------------------
    # Task boundary
    # ------------------------------------------------------------------
    def perturb_transfers(self, device_tasks: list[list], owners: list[list[int]]) -> dict[int, int]:
        """Draw transient failures over the merged per-device task lists.

        ``owners[d][i]`` is the query ``device_tasks[d][i]`` belongs to.
        Tasks are updated in place with their retry re-sends and backoff
        folded into ``transfer_time`` (and ``attempts`` set), so the
        retry cost lands in the co-scheduled timeline.  Returns
        ``{query_index: attempts}`` for the queries whose transfer
        exhausted the retry policy — permanent failures the caller must
        turn into a terminal query state.
        """
        if self._flaky_p <= 0.0:
            return {}
        probability = self._flaky_p
        retry = self.retry
        failures: dict[int, int] = {}
        for device, tasks in enumerate(device_tasks):
            for task, query in zip(tasks, owners[device]):
                if task.transfer_time <= 0.0:
                    continue
                failed = 0
                while failed < retry.max_attempts and self._rng.random() < probability:
                    failed += 1
                if failed == 0:
                    continue
                permanent = failed >= retry.max_attempts
                # Every failed attempt beyond the originally billed send
                # is a re-send; a permanent failure never gets the final
                # successful send, so one re-send less.
                resends = failed if not permanent else failed - 1
                extra = resends * task.transfer_time + retry.backoff_seconds(failed)
                attempts = failed if permanent else failed + 1
                name = "q%d|%s" % (query, task.name)
                self.faults_injected += 1
                self.retries += resends
                self.retry_time_s += extra
                self.device_faults[device] = self.device_faults.get(device, 0) + 1
                self.events.append(
                    {
                        "super_iteration": self._super - 1,
                        "kind": FaultKind.TRANSFER_FLAKY.value,
                        "task": name,
                        "device": device,
                        "attempts": attempts,
                        "permanent": permanent,
                    }
                )
                task.transfer_time += extra
                task.attempts = attempts
                if self.tracer.enabled:
                    self.tracer.instant(
                        "fault", "retry", track="faults", task=name,
                        device=device, attempts=attempts, permanent=permanent,
                        retry_time_s=extra,
                    )
                    track = self.trace_tracks[query] if self.trace_tracks is not None else None
                    if track is not None:
                        self.tracer.instant(
                            "fault", "retry", track=track, task=name,
                            device=device, attempts=attempts, permanent=permanent,
                            retry_time_s=extra,
                        )
                if permanent:
                    failures[query] = max(failures.get(query, 0), attempts)
        return failures
