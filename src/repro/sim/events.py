"""Timeline records produced by the multi-stream scheduler.

The scheduler in :mod:`repro.sim.streams` assigns every task's stages
(CPU compaction, PCIe transfer, GPU kernel) to simulated resources and
accumulates them in a :class:`Timeline`; the :class:`TimelineEntry`
records the per-iteration breakdown figures (Figure 3b/3c, Figure 7c/7d),
the tracer and the tests read are materialised from it on demand.

Multi-GPU runs add two things to the same records: every entry carries
the ``device`` that executed it, and each iteration ends with one
boundary-synchronisation entry occupying the ``"interconnect"`` resource
(the inter-GPU delta exchange; see :mod:`repro.runtime.context`).
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

__all__ = ["StageSpan", "TimelineEntry", "Timeline", "INTERCONNECT_RESOURCE", "SYNC_ENGINE"]

#: Resource name of the inter-GPU interconnect in multi-device timelines.
INTERCONNECT_RESOURCE = "interconnect"

#: Engine label of the per-iteration boundary-synchronisation entry.
SYNC_ENGINE = "sync"


class StageSpan(NamedTuple):
    """One resource occupancy interval: ``[start, end)`` seconds on ``resource``."""

    resource: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        """Length of the span in seconds."""
        return self.end - self.start


class TimelineEntry(NamedTuple):
    """Scheduling record of one task.

    ``device`` is the GPU the task ran on (0 on single-device runs; -1
    marks collective entries such as the boundary synchronisation, which
    involve every device).  ``owner`` is the query the task belongs to in
    a merged co-schedule (-1 when the schedule has a single owner).
    """

    name: str
    engine: str
    stream: int
    spans: tuple[StageSpan, ...]
    device: int = 0
    owner: int = -1

    @property
    def start(self) -> float:
        """When the first stage of the task started."""
        return min(span.start for span in self.spans) if self.spans else 0.0

    @property
    def end(self) -> float:
        """When the last stage of the task finished."""
        return max(span.end for span in self.spans) if self.spans else 0.0

    def time_on(self, resource: str) -> float:
        """Total seconds this task occupied ``resource``."""
        return sum(span.duration for span in self.spans if span.resource == resource)


class Timeline:
    """The full schedule of one iteration, accumulated while it is placed.

    ``rows`` holds one tuple per placed task, in placement order::

        (task, stream, device, owner,
         cpu_start, cpu_end, pcie_start, pcie_end, gpu_start, gpu_end)

    A stage exists iff the task's duration for it is positive.  The
    aggregates are updated by :meth:`~repro.sim.streams.StreamScheduler.place`
    in exactly the order the record-walking definitions summed in — one
    ``end - start`` per span, left to right over the placement order — so
    they are bit-for-bit what recomputing them from :attr:`entries` gives.
    Busy totals start as the integer ``0`` because that is what a sum
    over no spans is.
    """

    __slots__ = (
        "rows", "makespan", "busy", "owner_finish", "sync",
        "stream_free", "cpu_free", "pcie_free", "gpu_free",
    )

    def __init__(self, num_devices: int = 1, num_streams: int = 1, num_owners: int = 0):
        self.rows: list[tuple] = []
        #: End-to-end wall-clock time of the schedule.
        self.makespan = 0.0
        #: Resource name -> total busy seconds across all tasks.
        self.busy: dict[str, float] = {"cpu": 0, "pcie": 0, "gpu": 0, INTERCONNECT_RESOURCE: 0}
        #: Latest task end per owner (collective entries excluded).
        self.owner_finish = [0.0] * num_owners
        #: ``(start, end)`` of the boundary synchronisation, if any.
        self.sync: tuple[float, float] | None = None
        # Next-free cursors: one host CPU and one PCIe complex shared by
        # every device; streams and the GPU are per device.
        self.stream_free = [[0.0] * num_streams for _ in range(num_devices)]
        self.cpu_free = 0.0
        self.pcie_free = 0.0
        self.gpu_free = [0.0] * num_devices

    def add_sync(self, duration: float) -> None:
        """Append the boundary synchronisation after every placed task."""
        start = self.makespan
        end = start + duration
        self.sync = (start, end)
        self.busy[INTERCONNECT_RESOURCE] += end - start
        if end > self.makespan:
            self.makespan = end

    def busy_time(self, resource: str) -> float:
        """Total busy seconds of a resource across all tasks."""
        return self.busy.get(resource, 0)

    @property
    def sync_time(self) -> float:
        """Total interconnect occupancy (boundary synchronisation phases)."""
        return self.busy[INTERCONNECT_RESOURCE]

    def task_stages(self) -> Iterator[tuple]:
        """Each placed task as ``(task, stream, device, owner, stages)``, in placement order.

        ``stages`` lists the task's ``(resource, start, end)`` intervals:
        :attr:`entries` without the records and the label formatting, for
        the tracer's per-task loop.
        """
        for task, stream, device, owner, cpu_start, cpu_end, pcie_start, pcie_end, gpu_start, gpu_end in self.rows:
            stages = []
            if task.cpu_time > 0:
                stages.append(("cpu", cpu_start, cpu_end))
            if task.transfer_time > 0:
                stages.append(("pcie", pcie_start, pcie_end))
            if task.kernel_time > 0:
                stages.append(("gpu", gpu_start, gpu_end))
            yield task, stream, device, owner, stages

    @property
    def entries(self) -> list[TimelineEntry]:
        """The schedule as records, one per task in placement order."""
        entries = [
            TimelineEntry(
                str(task.name), task.engine, stream, tuple(StageSpan(*stage) for stage in stages), device, owner
            )
            for task, stream, device, owner, stages in self.task_stages()
        ]
        if self.sync is not None:
            span = StageSpan(INTERCONNECT_RESOURCE, *self.sync)
            entries.append(TimelineEntry("boundary-sync", SYNC_ENGINE, 0, (span,), device=-1))
        return entries
