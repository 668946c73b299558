"""Admission control: bounded estimated bytes in flight per wave.

The transfer argument of the paper cuts both ways for a serving system:
sharing whole-partition ships across co-scheduled queries is what makes
batching pay, but every admitted query also *adds* partitions that must
cross PCIe while it runs.  The :class:`AdmissionController` keeps the
sum of the admitted requests' estimated bytes in flight under a
configurable budget, so a burst of analytical queries queues (or bounces)
instead of collapsing every tenant's latency.

The per-request estimate reuses the device-memory cache subsystem:

* partitions already **resident** on a device cost nothing — their
  kernels read device memory;
* non-resident partitions cost their edge bytes once — the first ship;
* partitions an adaptive cache **declines to keep**
  (:meth:`~repro.cache.manager.CacheManager.would_admit` is ``False``)
  count double: they will be re-shipped iteration after iteration, which
  is sustained PCIe pressure rather than a one-off copy.

The partitions a request touches are taken from its *initial frontier*:
one partition for a point lookup (the source's), every partition for a
sourceless analytical program whose frontier starts full.  This is a
first-super-iteration working-set proxy — exactly the window in which the
wave's transfers contend — and it is what makes point lookups cheap to
admit and analytical scans expensive, without running anything.
"""

from __future__ import annotations

__all__ = ["AdmissionController"]

#: Estimate multiplier for partitions the cache policy refuses to keep
#: (they re-ship every iteration instead of being paid for once).
CHURN_FACTOR = 2


class AdmissionController:
    """Budgeted admission over one system's partitioning and cache."""

    def __init__(self, system, budget_bytes: int | None = None, policy: str = "queue"):
        self.system = system
        self.budget_bytes = budget_bytes
        self.policy = policy
        #: Estimated bytes of the requests currently admitted-but-unserved
        #: (drives the ``reject`` policy's hard back-pressure).
        self.pending_bytes = 0

    # ------------------------------------------------------------------
    # Estimation
    # ------------------------------------------------------------------
    def estimate_request_bytes(self, program, source: int | None) -> int:
        """Estimated PCIe bytes the request puts in flight when admitted."""
        partitioning = self.system.partitioning
        if program.needs_source and source is not None:
            touched = [int(partitioning.partition_of[self.system.executed_id(source)])]
        else:
            # Sourceless programs start with a full frontier: every
            # partition is in the first super-iteration's working set.
            touched = range(partitioning.num_partitions)
        context = self.system.context
        cache = context.cache
        total = 0
        for index in touched:
            if cache is not None and bool(cache.resident[index]):
                continue
            size = context.partition_bytes[index]
            if cache is not None and cache.adaptive and not cache.would_admit(index):
                size *= CHURN_FACTOR
            total += size
        return total

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------
    def decide(self, estimated_bytes: int) -> str | None:
        """Admission decision for one request: ``None`` or a reject reason.

        :meth:`refusal` decides; an admitted request's estimate is then
        reserved against the budget until :meth:`release`.
        """
        reason = self.refusal(estimated_bytes)
        if reason is None:
            self.pending_bytes += estimated_bytes
        return reason

    def refusal(self, estimated_bytes: int) -> str | None:
        """Why a request of this estimate would be refused now (or ``None``).

        Side-effect free, so the cluster router can ask every host.  A
        request whose own estimate exceeds the whole budget can never
        run and is refused under either policy; under ``reject``,
        requests are additionally refused while the already-admitted
        queue fills the budget (queueing is for transient overload, hard
        back-pressure pushes it onto the client).
        """
        if self.budget_bytes is None:
            return None
        if estimated_bytes > self.budget_bytes:
            return (
                "estimated %d bytes in flight exceed the %d-byte admission budget"
                % (estimated_bytes, self.budget_bytes)
            )
        if self.policy == "reject" and self.pending_bytes + estimated_bytes > self.budget_bytes:
            return (
                "admission budget exhausted (%d of %d bytes pending); retry after the "
                "queue drains" % (self.pending_bytes, self.budget_bytes)
            )
        return None

    def take_wave(self, handles: list) -> list:
        """Split the next scheduling wave off a queue of admitted handles.

        Greedy in queue order: handles join the wave while their summed
        estimates fit the budget; the head handle always joins (its
        estimate fit the whole budget at submit time), so the queue
        always makes progress.
        """
        wave = []
        wave_bytes = 0
        for handle in handles:
            fits = (
                self.budget_bytes is None
                or not wave
                or wave_bytes + handle.estimated_bytes <= self.budget_bytes
            )
            if not fits:
                break
            wave.append(handle)
            wave_bytes += handle.estimated_bytes
        return wave

    def release(self, handles: list) -> None:
        """Return a served wave's estimated bytes to the budget."""
        self.pending_bytes -= sum(handle.estimated_bytes for handle in handles)
        if self.pending_bytes < 0:
            self.pending_bytes = 0
