"""Flexible multi-stream scheduling (Section VI-B, Figure 6).

HyTGraph runs the three processing engines on multiple CUDA streams so
that CPU compaction, PCIe data transfer and GPU kernels of *different*
tasks overlap.  This module reproduces that behaviour with a small
deterministic list scheduler over three exclusive resources:

``cpu``   — the host compaction engine (ExpTM-compaction tasks only)
``pcie``  — the host-to-GPU interconnect (every task that moves bytes)
``gpu``   — the compute kernel

Each :class:`StreamTask` carries the per-stage durations its planner
priced from the PCIe and kernel models.  Tasks are assigned to streams in
priority order; stages of one task run in order (compact -> transfer ->
kernel), different streams' stages overlap whenever their resources are
free.  Zero-copy tasks overlap their transfer with their kernel implicitly
(the GPU threads stall on PCIe reads), so they occupy the GPU and PCIe for
``max(transfer, kernel)`` simultaneously.

The scheduler returns a :class:`~repro.sim.events.Timeline` whose makespan
is the simulated iteration time and whose spans feed the breakdown
figures.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.config import HardwareConfig
from repro.sim.events import Timeline, TimelineEntry

__all__ = ["StreamTask", "StreamScheduler", "Timeline", "TimelineEntry"]


@dataclass(slots=True)
class StreamTask:
    """One schedulable unit of work.

    Attributes
    ----------
    name:
        Label shown in timelines (usually the partition/task id): a
        string, or any object whose ``str()`` is the label — formatted
        only where a label is shown (timeline records, fault events).
    engine:
        Transfer engine name (``"ExpTM-F"``, ``"ExpTM-C"``, ``"ImpTM-ZC"``,
        ``"ImpTM-UM"`` or ``"CPU"``).
    cpu_time:
        Host compaction seconds (0 for non-compaction engines).
    transfer_time:
        PCIe seconds.
    kernel_time:
        GPU kernel seconds.
    overlapped_transfer:
        When True the transfer and kernel stages run concurrently on their
        two resources for ``max(transfer, kernel)`` seconds (zero-copy /
        unified-memory on-demand access); when False they are sequential
        (explicit copy then kernel).
    priority:
        Lower value = scheduled earlier (contribution-driven scheduling
        sets this).
    attempts:
        How many sends the task's transfer took (1 = clean; >1 means the
        fault injector drew transient failures and the retries/backoff
        are already folded into ``transfer_time``).
    """

    name: object
    engine: str
    cpu_time: float = 0.0
    transfer_time: float = 0.0
    kernel_time: float = 0.0
    overlapped_transfer: bool = False
    priority: float = 0.0
    attempts: int = 1


class StreamScheduler:
    """Deterministic multi-stream list scheduler."""

    def __init__(self, config: HardwareConfig):
        self.config = config

    def schedule(self, tasks: list[StreamTask], num_streams: int | None = None) -> Timeline:
        """Schedule ``tasks`` onto streams and shared resources.

        Tasks are processed in ascending ``priority`` (ties broken by
        submission order, keeping the schedule deterministic).  Each stream
        runs its tasks back to back; the ``cpu``, ``pcie`` and ``gpu``
        resources serialise across streams, which is what creates the
        overlap benefit of Figure 6.
        """
        if num_streams is None:
            num_streams = self.config.num_streams
        if num_streams <= 0:
            raise ValueError("num_streams must be positive")

        timeline = Timeline(num_streams=num_streams)
        for _, task in sorted(enumerate(tasks), key=lambda pair: (pair[1].priority, pair[0])):
            self.place(task, timeline)
        return timeline

    def place(self, task: StreamTask, timeline: Timeline, device: int = 0, owner: int = -1) -> None:
        """Place one task onto ``device``'s streams and the shared resources.

        The timeline owns the resource cursors, so devices contend for the
        same physical resources: the multi-GPU layer places every device's
        tasks into one timeline (one host ``cpu`` and ``pcie``, a ``gpu``
        and a stream set per device).  Appends the task's row and folds
        its spans into the timeline's aggregates.
        """
        stream_free = timeline.stream_free[device]
        stream = stream_free.index(min(stream_free))
        cursor = stream_free[stream]
        busy = timeline.busy
        cpu_start = cpu_end = pcie_start = pcie_end = gpu_start = gpu_end = 0.0
        placed = False

        cpu_time = task.cpu_time
        if cpu_time > 0:
            free = timeline.cpu_free
            cpu_start = free if free > cursor else cursor
            cursor = cpu_end = cpu_start + cpu_time
            timeline.cpu_free = cursor
            busy["cpu"] += cpu_end - cpu_start
            placed = True

        transfer_time = task.transfer_time
        kernel_time = task.kernel_time
        if task.overlapped_transfer:
            duration = transfer_time if transfer_time > kernel_time else kernel_time
            if duration > 0:
                start = max(cursor, timeline.pcie_free, timeline.gpu_free[device])
                cursor = start + duration
                timeline.pcie_free = cursor
                timeline.gpu_free[device] = cursor
                if transfer_time > 0:
                    pcie_start, pcie_end = start, start + transfer_time
                    busy["pcie"] += pcie_end - pcie_start
                if kernel_time > 0:
                    gpu_start, gpu_end = start, start + kernel_time
                    busy["gpu"] += gpu_end - gpu_start
                placed = True
        else:
            if transfer_time > 0:
                free = timeline.pcie_free
                pcie_start = free if free > cursor else cursor
                cursor = pcie_end = pcie_start + transfer_time
                timeline.pcie_free = cursor
                busy["pcie"] += pcie_end - pcie_start
                placed = True
            if kernel_time > 0:
                free = timeline.gpu_free[device]
                gpu_start = free if free > cursor else cursor
                cursor = gpu_end = gpu_start + kernel_time
                timeline.gpu_free[device] = cursor
                busy["gpu"] += gpu_end - gpu_start
                placed = True

        stream_free[stream] = cursor
        timeline.rows.append((
            task, stream, device, owner,
            cpu_start, cpu_end, pcie_start, pcie_end, gpu_start, gpu_end,
        ))
        # A task's end is its last stage's end; a task with no stage ends
        # at 0.0 and moves neither aggregate.
        if placed:
            if cursor > timeline.makespan:
                timeline.makespan = cursor
            if owner >= 0 and cursor > timeline.owner_finish[owner]:
                timeline.owner_finish[owner] = cursor
