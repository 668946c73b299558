"""Device-agnostic execution context: one topology object per session.

:class:`ExecutionContext` bundles everything the execution layer needs to
know about *where* work runs — the device count, the contiguous
partition-range shards, the optional device-memory cache, the transfer
window and the scheduler that places per-device task lists onto the
shared host resources.  It is constructed once per system (or once per
batch session) and handed to the
:class:`~repro.runtime.driver.IterationDriver`.

**The transfer window.**  "Is this partition's edge data already on a
device?" is answered here and nowhere else.  A window is one iteration
of a solo run or one super-iteration of a batch
(:meth:`ExecutionContext.begin_window`); inside it a whole partition
crosses PCIe at most once — edge data is the same for every query.
:attr:`ExecutionContext.claim` runs the billing protocol of one
whole-partition (filter) ship — cache split, window dedup, miss tally,
admission — and returns what is left to price; planners never test
whether a cache exists.  Bytes saved by a peer's copy accumulate in
:attr:`ExecutionContext.amortized_bytes` (a solo iteration claims each
partition once, so there the dedup is the identity).

``num_devices == 1`` is not a separate code path: the context simply
holds one shard covering the whole partitioning, every frontier split
returns one slice, every remote-activation count is zero and the
scheduler emits no boundary-synchronisation entry.  That makes the
sharded execution path bitwise identical to the historical single-device
engines while deleting their ``run``/``_run_multi`` twin code.

:class:`MultiDeviceScheduler` (formerly ``repro.sim.multi_gpu``) places every
device's tasks with one :class:`~repro.sim.streams.StreamScheduler` into one
:class:`~repro.sim.events.Timeline`.  The devices
contend for two *shared host* resources — the CPU compaction engine and
the host PCIe complex (every explicit copy and zero-copy read crosses the
same root complex) — while each device brings its own GPU and its own
CUDA streams.  Tasks from different devices are interleaved in global
priority order, which models all devices making progress concurrently.

Every multi-device iteration ends with a **boundary synchronisation
phase**: devices exchange the delta updates they produced for vertices
owned by other shards (one ``(compacted-index entry, value)`` message per
remote activation) plus a convergence-flag all-reduce.  The exchange runs
all-to-all over dedicated inter-GPU links, so its duration is the fixed
interconnect latency plus the busiest sender's bytes at the interconnect
bandwidth.  The phase appears in the iteration timeline as one collective
entry on the ``"interconnect"`` resource, after every device's last task.
"""

from __future__ import annotations

from functools import partial
from typing import Sequence

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.partition import Partitioning, ShardedPartitioning
from repro.sim.config import HardwareConfig
from repro.sim.events import Timeline
from repro.cache.manager import CacheManager
from repro.core.backends import KernelBackend, active_backend, resolve_backend
from repro.obs.tracer import NULL_TRACER
from repro.sim.kernel import KernelModel
from repro.sim.streams import StreamScheduler, StreamTask

__all__ = ["ExecutionContext", "MultiDeviceScheduler"]


class MultiDeviceScheduler:
    """Schedules per-device task lists onto N GPUs sharing one host."""

    def __init__(self, config: HardwareConfig, num_devices: int | None = None):
        self.config = config
        self.num_devices = num_devices if num_devices is not None else config.num_devices
        if self.num_devices < 1:
            raise ValueError("num_devices must be at least 1")
        #: Places every device's tasks: the per-device streams and GPU
        #: cursors live in the timeline being built, not in the scheduler.
        self.stream_scheduler = StreamScheduler(config)
        #: Multiplicative boundary-exchange slowdown (>= 1; the fault
        #: injector's ``interconnect-degrade`` raises it mid-run).
        self.interconnect_slowdown = 1.0

    # ------------------------------------------------------------------
    # Boundary synchronisation
    # ------------------------------------------------------------------
    def sync_duration(self, sync_bytes_per_device: Sequence[int] | None) -> float:
        """Seconds of the per-iteration boundary synchronisation phase.

        Single-device runs synchronise nothing.  Multi-device runs always
        pay the interconnect latency (barrier + convergence all-reduce)
        plus the busiest sender's outgoing delta bytes over its link.
        """
        if self.num_devices <= 1:
            return 0.0
        busiest = max(sync_bytes_per_device, default=0) if sync_bytes_per_device else 0
        return self.interconnect_slowdown * (
            self.config.interconnect_latency + busiest / self.config.interconnect_bandwidth
        )

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        device_tasks: Sequence[list[StreamTask]],
        sync_bytes_per_device: Sequence[int] | None = None,
        owners: Sequence[list[int]] | None = None,
        class_offsets: Sequence[float] | None = None,
    ) -> Timeline:
        """Schedule every device's tasks plus the boundary sync phase.

        ``device_tasks[d]`` is device ``d``'s task list.  Tasks are
        placed in global ``(priority, submission order, device)`` order
        onto each device's own streams/GPU while the ``cpu`` and ``pcie``
        resources are shared across all devices.

        A merged co-schedule of several queries passes ``owners`` —
        ``owners[d][i]`` is the query ``device_tasks[d][i]`` belongs to —
        and ``class_offsets``, the priority-class offset of each owner,
        added to its tasks' priorities (a zero offset leaves them
        untouched).  The timeline then tracks each owner's finish time.
        """
        if len(device_tasks) != self.num_devices:
            raise ValueError(
                "expected %d device task lists, got %d" % (self.num_devices, len(device_tasks))
            )

        # (position, device) is unique, so tuple order never reaches the
        # trailing owner/task members.
        merged: list[tuple[float, int, int, int, StreamTask]] = []
        for device, tasks in enumerate(device_tasks):
            device_owners = owners[device] if owners is not None else [-1] * len(tasks)
            for position, (task, owner) in enumerate(zip(tasks, device_owners)):
                offset = class_offsets[owner] if owner >= 0 else 0.0
                priority = offset + task.priority if offset else task.priority
                merged.append((priority, position, device, owner, task))
        merged.sort()

        num_owners = len(class_offsets) if owners is not None else 0
        timeline = Timeline(self.num_devices, self.config.num_streams, num_owners)
        place = self.stream_scheduler.place
        for _, _, device, owner, task in merged:
            place(task, timeline, device, owner)

        if self.num_devices > 1:
            timeline.add_sync(self.sync_duration(sync_bytes_per_device))
        return timeline


class ExecutionContext:
    """Devices, shards, device-memory cache and schedulers of one session.

    Parameters
    ----------
    graph / partitioning / config:
        The (possibly preprocessed) graph the session executes on, its
        edge partitioning, and the hardware platform.
    cache_policy:
        Eviction policy of the device-memory cache subsystem
        (:mod:`repro.cache`).  ``"static-prefix"`` (default) pins the
        leading partitions of every shard on multi-device sessions
        (:class:`~repro.cache.policy.StaticPrefixPolicy`) and leaves
        single-device sessions cacheless, exactly as in the paper: its
        testbed graphs oversubscribe one GPU's memory, so partitions
        churn and static caching buys nothing there.  The adaptive
        policies (``"lru"``, ``"frontier-aware"``) start empty, admit
        shipped partitions and evict at iteration boundaries — and are
        active at *any* device count, including one.
    cache_budget:
        Per-device cache budget in bytes (default: the device's
        edge-cache memory, ``config.gpu_memory_bytes``).
    backend:
        Compute backend for the kernel layer (a name, a
        :class:`~repro.core.backends.KernelBackend` instance, or ``None``).
        ``None`` (default) leaves the session on the process-wide active
        backend (``REPRO_BACKEND`` env override, ``numpy`` otherwise); an
        explicit value pins this session's kernels — the driver scopes it
        around every planned iteration.  Resolution happens here, at
        construction, so an unknown/unavailable backend fails the session
        up front (and JIT warm-up cost lands here, never in a timed
        region).
    """

    def __init__(
        self,
        graph: CSRGraph,
        partitioning: Partitioning,
        config: HardwareConfig,
        cache_policy: str = "static-prefix",
        cache_budget: int | None = None,
        backend: str | KernelBackend | None = None,
    ):
        self.graph = graph
        self.partitioning = partitioning
        self.config = config
        self.backend: KernelBackend | None = (
            resolve_backend(backend) if backend is not None else None
        )
        self.num_devices = config.num_devices
        self.sharding = ShardedPartitioning(partitioning, config.num_devices)
        self.cache: CacheManager | None = None
        # Adaptive policies replace static residency wholesale and apply
        # at any device count; the static prefix only pins the shards of
        # multi-device sessions.
        if cache_policy != "static-prefix" or self.is_multi_device:
            self.cache = CacheManager(
                partitioning, self.sharding, config,
                policy=cache_policy, budget_bytes=cache_budget,
            )
        #: Partitions shipped whole in the current transfer window
        #: (read-only for callers: :meth:`claim_unshipped` is the writer).
        self.shipped: set[int] = set()
        #: Whole-partition bytes *not* re-shipped thanks to the window.
        self.amortized_bytes = 0
        self._partition_bytes = [partition.edge_bytes for partition in partitioning.partitions]
        #: ``claim(partition_indices) -> billable indices`` (module
        #: docstring).  Bound once — the cache is mutated in place on
        #: device loss, never replaced — so the planners' per-task call
        #: lands directly in the code that decides.
        self.claim = (
            self.claim_unshipped
            if self.cache is None
            else partial(self.cache.claim_billable, dedup=self.claim_unshipped)
        )
        self.scheduler = MultiDeviceScheduler(config)
        self.kernel_model = KernelModel(config)
        #: Span sink (no-op unless a service/CLI installs a recording
        #: tracer; see :mod:`repro.obs`).
        self.tracer = NULL_TRACER
        #: Devices lost to injected faults, in loss order.
        self.lost_devices: list[int] = []
        #: Set when the last device died and execution degraded to the
        #: host CPU (the final fallback rung: queries survive, slowly).
        self.host_fallback = False
        #: Multiplier applied to scheduled makespans (1.0 normally; the
        #: GPU/CPU edge-throughput ratio under host fallback).
        self.time_scale = 1.0

    @property
    def is_multi_device(self) -> bool:
        """Whether more than one device participates in this session."""
        return self.num_devices > 1

    @property
    def backend_name(self) -> str:
        """Name of the backend this session's kernels run on.

        Falls back to the process-wide active backend when the session
        was built without an explicit one.
        """
        backend = self.backend if self.backend is not None else active_backend()
        return backend.name

    @property
    def cache_policy(self) -> str:
        """Active cache policy name (``static-prefix`` when cacheless)."""
        return "static-prefix" if self.cache is None else self.cache.policy_name

    @property
    def num_resident_partitions(self) -> int:
        """Partitions resident in device memory across all shards."""
        return 0 if self.cache is None else self.cache.num_resident

    def reset(self) -> None:
        """Forget cross-run transfer state (window, amortized tally, cache)."""
        self.shipped.clear()
        self.amortized_bytes = 0
        if self.cache is not None:
            self.cache.reset()

    # ------------------------------------------------------------------
    # Transfer window
    # ------------------------------------------------------------------
    def begin_window(self) -> None:
        """Open the next transfer window (iteration or super-iteration).

        Forgets the transient shipped set (cache admissions persist) and
        commits the cache's observation window: frontier-aware eviction
        fires once per boundary however many queries planned before it.
        """
        self.shipped.clear()
        if self.cache is not None:
            self.cache.begin_iteration()

    def claim_unshipped(self, partition_indices: Sequence[int]) -> list[int]:
        """The window dedup: the partitions not yet shipped this window.

        Marks them shipped (the caller pays for them); the others are
        tallied as amortized bytes.
        """
        shipped = self.shipped
        fresh: list[int] = []
        for index in partition_indices:
            if index in shipped:
                self.amortized_bytes += self._partition_bytes[index]
            else:
                shipped.add(index)
                fresh.append(index)
        return fresh

    # ------------------------------------------------------------------
    # Degraded modes (fault recovery)
    # ------------------------------------------------------------------
    def lose_device(self, device: int) -> None:
        """Permanently remove one device; re-shard onto the survivors.

        The lost shard's partitions are remapped by rebuilding the
        byte-balanced contiguous sharding over the surviving device
        count; the cache manager is re-sharded **in place** (callers
        keep their reference) with all residency invalidated — the lost
        device's memory is gone, and the survivors' contents no longer
        match their new shards.  Losing the last device degrades to
        host fallback: the session keeps executing with kernels priced
        at CPU edge throughput and no device cache.
        """
        if self.host_fallback:
            raise RuntimeError("no device left to lose: session already runs on the host")
        if not 0 <= device < self.num_devices:
            raise ValueError(
                "device %d outside the %d live device(s)" % (device, self.num_devices)
            )
        self.lost_devices.append(device)
        survivors = self.num_devices - 1
        if survivors == 0:
            self.host_fallback = True
            self.time_scale = self.config.gpu_edge_throughput / self.config.cpu_edge_throughput
            if self.cache is not None:
                self.cache.invalidate()
                self.cache.set_budget(0)
            return
        self.num_devices = survivors
        self.sharding = ShardedPartitioning(self.partitioning, survivors)
        slowdown = self.scheduler.interconnect_slowdown
        self.scheduler = MultiDeviceScheduler(self.config, num_devices=survivors)
        self.scheduler.interconnect_slowdown = slowdown
        if self.cache is not None:
            self.cache.reshard(self.sharding)

    def shrink_cache_budget(self, factor: float) -> None:
        """Mid-run memory pressure: scale the per-device cache budget.

        Silently a no-op on cacheless sessions (there is no budget to
        squeeze; the kernels already re-ship everything every iteration).
        """
        if self.cache is not None:
            self.cache.shrink_budget(factor)

    def degrade_interconnect(self, factor: float) -> None:
        """Slow the boundary exchange down by ``factor`` (>= 1)."""
        if factor < 1.0:
            raise ValueError("interconnect degradation factor must be >= 1")
        self.scheduler.interconnect_slowdown *= factor

    # ------------------------------------------------------------------
    # Frontier topology helpers
    # ------------------------------------------------------------------
    def split_frontier(self, active_ids: np.ndarray) -> list[np.ndarray]:
        """Slice a sorted active-vertex array into one view per device."""
        return self.sharding.split_sorted_vertices(active_ids)

    def count_remote(self, vertices: np.ndarray, device: int) -> int:
        """Remote-activation messages ``device`` emits for ``vertices``.

        Zero on single-device sessions (the one shard owns everything),
        so callers never branch on the device count.
        """
        if not self.is_multi_device:
            return 0
        return self.sharding[device].count_remote(vertices)

    def sync_bytes(self, remote_updates: Sequence[int]) -> list[int]:
        """Per-device outgoing boundary-delta bytes from message counts."""
        per_update = self.config.boundary_update_bytes
        return [count * per_update for count in remote_updates]

    def empty_device_lists(self) -> list[list]:
        """One empty per-device list per device (task/accumulator shells)."""
        return [[] for _ in range(self.num_devices)]

    def schedule(
        self,
        device_tasks: Sequence[list[StreamTask]],
        sync_bytes_per_device: Sequence[int] | None = None,
        owners: Sequence[list[int]] | None = None,
        class_offsets: Sequence[float] | None = None,
    ) -> Timeline:
        """Schedule per-device task lists plus the boundary sync phase."""
        return self.scheduler.schedule(device_tasks, sync_bytes_per_device, owners, class_offsets)
