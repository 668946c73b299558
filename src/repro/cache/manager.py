"""Adaptive device-memory cache over partition-granularity edge data.

The paper's thesis is that CPU–GPU transfer is *the* cost to manage, and
that the decision of what to move must adapt per iteration.  The
:class:`CacheManager` applies the same argument to what *stays*: it owns
a per-device byte budget over the edge partitions each device's shard
contains, and a pluggable :mod:`~repro.cache.policy` decides which
partitions occupy it.  A resident partition's whole-partition (filter
style) transfer is free — its kernel reads device memory — while every
miss is billed as an explicit copy and then offered to the policy for
admission.

The manager is one object per execution session, shared by every code
path that moves whole partitions:

* the HyTGraph engine consults it during engine selection (resident
  partitions price the filter engine at zero) and bills misses through
  it;
* the pure filter system (ExpTM-F) skips the copy for resident
  partitions under adaptive policies;
* the session's transfer window
  (:meth:`~repro.runtime.context.ExecutionContext.begin_window`)
  composes with it — a partition admitted after query A's ship is a
  *hit* for queries B..K in every later super-iteration, which is the
  cross-super-iteration transfer cache the static design lacked (the
  window's dedup, handed to :meth:`CacheManager.claim_billable`, still
  covers transient, non-admitted ships inside one super-iteration).

Admission is classless: every query's fills, whatever its scheduling
class, compete for the same per-device budget under the one policy.

Per-query frontier observations aggregate over a *window* (one iteration
of a solo run, one super-iteration of a batch — every live query's
frontier counts) and fold into the policy's scores when the next window
opens, so eviction decisions are made once per iteration boundary,
exactly the "between iterations" cadence the frontier-aware policy needs.
"""

from __future__ import annotations

import numpy as np

from repro.cache.policy import EvictionPolicy, make_policy
from repro.graph.partition import Partitioning, ShardedPartitioning
from repro.obs.tracer import NULL_TRACER
from repro.sim.config import HardwareConfig

__all__ = ["CacheManager"]

#: Counter names exposed in :meth:`CacheManager.counters` /
#: :meth:`CacheManager.delta`, matching the ``cache_*`` fields of
#: :class:`~repro.metrics.results.IterationStats`.
COUNTER_FIELDS = ("hit_bytes", "miss_bytes", "evicted_bytes", "hits", "misses", "evictions")


class CacheManager:
    """Per-device partition residency under one eviction policy."""

    def __init__(
        self,
        partitioning: Partitioning,
        sharding: ShardedPartitioning,
        config: HardwareConfig,
        policy: str | EvictionPolicy = "static-prefix",
        budget_bytes: int | None = None,
    ):
        if budget_bytes is not None and budget_bytes < 0:
            raise ValueError("cache budget must be non-negative")
        self.partitioning = partitioning
        self.sharding = sharding
        self.config = config
        self.num_partitions = partitioning.num_partitions
        self.num_devices = sharding.num_devices
        #: Per-device cache budget in bytes (``--cache-budget`` or the
        #: device's edge-cache memory).
        per_device = config.gpu_memory_bytes if budget_bytes is None else budget_bytes
        self.per_device_budget = per_device
        self.budget_bytes = [per_device] * self.num_devices
        self.policy = make_policy(policy)
        self.policy.bind(self)
        #: resident[p] — partition ``p``'s edge data sits in its owning
        #: device's memory right now.
        self.resident = np.zeros(self.num_partitions, dtype=bool)
        #: loaded[p] — static-prefix first-touch flag (the one-off
        #: residency copy has been charged already).
        self.loaded = np.zeros(self.num_partitions, dtype=bool)
        self.used_bytes = [0] * self.num_devices
        self._window_active = np.zeros(self.num_partitions, dtype=np.int64)
        self._window_dirty = False
        self._counters = dict.fromkeys(COUNTER_FIELDS, 0)
        #: Bytes dropped by fault-driven :meth:`invalidate` calls (kept
        #: out of the eviction counters: residency lost to a fault is
        #: not a policy decision).
        self.invalidated_bytes = 0
        #: Span sink for cache events (no-op unless a service installs a
        #: recording tracer; see :mod:`repro.obs`).
        self.tracer = NULL_TRACER
        self._install_initial_residency()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _install_initial_residency(self) -> None:
        self.resident = self.policy.initial_resident()
        self.used_bytes = [
            int(self.partitioning.edge_bytes[self.resident & (self.sharding.device_of == device)].sum())
            for device in range(self.num_devices)
        ]

    def reset(self) -> None:
        """Back to a cold cache (between runs; once per batch).

        The static policy keeps its pinned set and only forgets the
        first-touch flags (the pre-cache residency reset), while
        adaptive policies drop every resident partition and all
        recency/score state.
        """
        self.loaded[:] = False
        self._window_active[:] = 0
        self._window_dirty = False
        self._counters = dict.fromkeys(COUNTER_FIELDS, 0)
        self.invalidated_bytes = 0
        self.policy.reset()
        if self.adaptive:
            self.resident[:] = False
            self.used_bytes = [0] * self.num_devices
        else:
            self._install_initial_residency()

    # ------------------------------------------------------------------
    # Fault recovery (in-place mutation: callers keep their reference)
    # ------------------------------------------------------------------
    def invalidate(self) -> None:
        """Drop every resident partition without billing evictions.

        Fault-driven: the bytes were lost (device died, shards moved),
        not chosen for replacement, so the loss lands in
        :attr:`invalidated_bytes` rather than the eviction counters and
        the policy's recency/score state restarts cold.
        """
        if self.tracer.enabled:
            self.tracer.instant(
                "cache", "invalidate", track="cache",
                bytes=self.resident_bytes, partitions=self.num_resident,
            )
        self.invalidated_bytes += self.resident_bytes
        self.resident[:] = False
        self.loaded[:] = False
        self.used_bytes = [0] * self.num_devices
        self.policy.reset()

    def set_budget(self, budget_bytes: int) -> None:
        """Change the per-device budget mid-run, evicting down to it."""
        if budget_bytes < 0:
            raise ValueError("cache budget must be non-negative")
        self.per_device_budget = budget_bytes
        self.budget_bytes = [budget_bytes] * self.num_devices
        self._evict_over_budget()

    def shrink_budget(self, factor: float) -> None:
        """Memory pressure: scale the per-device budget by ``factor``."""
        if not 0.0 <= factor <= 1.0:
            raise ValueError("memory-pressure factor must be in [0, 1]")
        self.set_budget(int(self.per_device_budget * factor))

    def _evict_over_budget(self) -> None:
        """Evict trailing resident partitions until every device fits.

        Trailing-first keeps the static policy's pinned *prefix* shape
        intact, and for adaptive policies it is simply a deterministic
        order; these are real (billed) evictions — the partitions are
        pushed out to make the budget, not lost to a fault.
        """
        for device in range(self.num_devices):
            budget = self.budget_bytes[device]
            if self.used_bytes[device] <= budget:
                continue
            for index in self.resident_on_device(device)[::-1]:
                self._evict(int(index))
                if self.used_bytes[device] <= budget:
                    break

    def reshard(self, sharding: ShardedPartitioning) -> None:
        """Rebind to a new sharding after device loss, in place.

        All residency is invalidated first — survivors' contents no
        longer match their new shards — then the budgets are rebuilt for
        the new device count (the device map is the new sharding's).
        The static policy re-pins its prefix on the survivors with
        cleared first-touch flags, so the re-warm transfers are billed
        naturally on next use.
        """
        self.invalidate()
        self.sharding = sharding
        self.num_devices = sharding.num_devices
        self.budget_bytes = [self.per_device_budget] * self.num_devices
        self.used_bytes = [0] * self.num_devices
        if not self.adaptive:
            self._install_initial_residency()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def adaptive(self) -> bool:
        """Whether residency changes at runtime (non-static policy)."""
        return self.policy.adaptive

    @property
    def policy_name(self) -> str:
        """Registry name of the active policy."""
        return self.policy.name

    @property
    def num_resident(self) -> int:
        """Partitions resident across all devices right now."""
        return int(self.resident.sum())

    @property
    def resident_bytes(self) -> int:
        """Bytes of edge data resident across all devices right now."""
        return int(sum(self.used_bytes))

    def resident_on_device(self, device: int) -> np.ndarray:
        """Indices of the partitions resident on ``device`` (ascending)."""
        return np.flatnonzero(self.resident & (self.sharding.device_of == device))

    def would_admit(self, index: int) -> bool:
        """Dry-run admission check: would :meth:`fill` keep this partition?

        Admission control counts a partition the policy would refuse to
        keep as re-shipped churn (nothing is evicted by this call).
        """
        if not self.adaptive:
            return False
        if self.resident[index]:
            return True
        device = int(self.sharding.device_of[index])
        size = int(self.partitioning.edge_bytes[index])
        budget = self.budget_bytes[device]
        if size > budget:
            return False
        needed = self.used_bytes[device] + size - budget
        return needed <= 0 or self.policy.victims(device, index, needed) is not None

    def counters(self) -> dict[str, int]:
        """Cumulative hit/miss/eviction counters since the last reset."""
        return dict(self._counters)

    def snapshot_counters(self) -> tuple[int, ...]:
        """Cheap counter snapshot for windowed deltas."""
        return tuple(self._counters[field] for field in COUNTER_FIELDS)

    def delta(self, snapshot: tuple[int, ...]) -> dict[str, int]:
        """Counter movement since ``snapshot``."""
        return {
            field: self._counters[field] - before
            for field, before in zip(COUNTER_FIELDS, snapshot)
        }

    # ------------------------------------------------------------------
    # Observation window (iteration-boundary eviction cadence)
    # ------------------------------------------------------------------
    def begin_iteration(self) -> None:
        """Open a new observation window; commit and evict for the last one.

        Called once per iteration by solo drivers and once per
        super-iteration by the batch runner (*before* any query plans),
        so the frontier-aware policy rescores and evicts collapsed
        partitions exactly once per boundary no matter how many queries
        observed frontiers inside the window.
        """
        if not self._window_dirty:
            return
        window = self._window_active
        self._window_active = np.zeros(self.num_partitions, dtype=np.int64)
        self._window_dirty = False
        if not self.adaptive:
            return
        for victim in self.policy.commit_window(window):
            if self.resident[victim]:
                self._evict(victim)

    def observe_frontier(self, active_edges: np.ndarray) -> None:
        """Record one query's per-partition active-edge counts.

        Multiple queries of a batch super-iteration each observe their
        own frontier; the window keeps the per-partition maximum so a
        partition hot for *any* live query counts as hot.
        """
        np.maximum(
            self._window_active, active_edges, out=self._window_active
        )
        self._window_dirty = True
        self.policy.observe_window(self._window_active)

    # ------------------------------------------------------------------
    # Lookup and billing
    # ------------------------------------------------------------------
    def split_billable(self, partition_indices: list[int]) -> tuple[list[int], list[int]]:
        """Split a task's partitions into (billable, cache-hit).

        Static mode reproduces the pre-cache shard residency bitwise:
        resident partitions are billable on first touch and free
        afterwards.  Adaptive mode: resident partitions hit (their
        recency refreshes), everything else must be billed — and then
        offered back through :meth:`fill` once it is on the device.
        """
        billable: list[int] = []
        free: list[int] = []
        if self.adaptive:
            for index in partition_indices:
                if self.resident[index]:
                    free.append(index)
                    self._record_hit(index)
                else:
                    billable.append(index)
            return billable, free
        for index in partition_indices:
            if self.resident[index] and self.loaded[index]:
                free.append(index)
                self._record_hit(index)
            else:
                if self.resident[index]:
                    self.loaded[index] = True
                billable.append(index)
        return billable, free

    def claim_billable(self, partition_indices: list[int], dedup) -> list[int]:
        """The full billing protocol for one whole-partition (filter) ship.

        Encodes the ordering invariants every filter-transfer path must
        follow, in one place:

        1. :meth:`split_billable` — resident partitions hit for free;
        2. ``dedup`` — the transfer window's
           :meth:`~repro.runtime.context.ExecutionContext.claim_unshipped`
           — claims the remainder (partitions already shipped this
           window, by a peer query of the super-iteration, cost this
           query nothing);
        3. misses are tallied only for what survives both — the copies
           that actually cross PCIe now;
        4. *every* cache-missing partition (billed here or riding a
           peer's copy) is offered for admission — the bytes are on the
           device either way.

        Returns the partitions the caller must price as explicit copies.
        """
        missed, _ = self.split_billable(list(partition_indices))
        billable = dedup(missed)
        self.record_miss(billable)
        self.fill(missed)
        return billable

    def record_miss(self, partition_indices: list[int]) -> None:
        """Tally billed whole-partition copies as cache misses."""
        for index in partition_indices:
            self._counters["misses"] += 1
            self._counters["miss_bytes"] += int(self.partitioning.edge_bytes[index])

    def fill(self, partition_indices: list[int]) -> None:
        """Offer freshly shipped partitions to the policy for admission.

        Call with every partition that just crossed PCIe as a whole
        (billed by this query or deduplicated onto a peer's copy): the
        bytes are on the device either way, so keeping them costs
        nothing now and saves the next ship.  Static mode ignores this —
        its resident set never changes.
        """
        if not self.adaptive:
            return
        for index in partition_indices:
            self._admit(index)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _record_hit(self, index: int) -> None:
        self._counters["hits"] += 1
        self._counters["hit_bytes"] += int(self.partitioning.edge_bytes[index])
        if self.tracer.enabled:
            self.tracer.instant(
                "cache", "hit", track="cache", partition=index,
                device=int(self.sharding.device_of[index]),
                bytes=int(self.partitioning.edge_bytes[index]),
            )
        self.policy.on_hit(index)

    def _admit(self, index: int) -> None:
        if self.resident[index]:
            return
        device = int(self.sharding.device_of[index])
        size = int(self.partitioning.edge_bytes[index])
        budget = self.budget_bytes[device]
        if size > budget:
            return  # can never fit; stay transient
        needed = self.used_bytes[device] + size - budget
        if needed > 0:
            victims = self.policy.victims(device, index, needed)
            if victims is None:
                return  # policy declined the admission
            for victim in victims:
                self._evict(victim)
            if self.used_bytes[device] + size > budget:
                return  # victims did not free enough after all
        self.resident[index] = True
        self.used_bytes[device] += size
        self.policy.on_admit(index)
        if self.tracer.enabled:
            self.tracer.instant(
                "cache", "admit", track="cache", partition=index,
                device=device, bytes=size,
            )

    def _evict(self, index: int) -> None:
        if not self.resident[index]:
            return
        device = int(self.sharding.device_of[index])
        self.resident[index] = False
        self.used_bytes[device] -= int(self.partitioning.edge_bytes[index])
        self._counters["evictions"] += 1
        self._counters["evicted_bytes"] += int(self.partitioning.edge_bytes[index])
        if self.tracer.enabled:
            self.tracer.instant(
                "cache", "evict", track="cache", partition=index,
                device=device, bytes=int(self.partitioning.edge_bytes[index]),
            )
