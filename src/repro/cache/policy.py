"""Pluggable eviction policies for the device-memory partition cache.

A policy decides *which* partitions occupy each device's cache budget;
the :class:`~repro.cache.manager.CacheManager` owns the mechanics (byte
accounting, resident sets, hit/miss/eviction counters) and calls into
the policy at three points:

* :meth:`EvictionPolicy.on_hit` — a resident partition was read again;
* :meth:`EvictionPolicy.victims` — a shipped partition wants residency
  and the device is over budget: pick what to sacrifice (or decline);
* :meth:`EvictionPolicy.commit_window` — one iteration's aggregated
  frontier observation closed: rescore partitions and name the resident
  ones whose activity collapsed.

Three policies ship:

``static-prefix``
    The pre-cache shard residency, reproduced bitwise: each device pins
    the leading partitions of its shard until the budget is spent, pays
    one first-touch copy per pinned partition, and never evicts or
    admits anything afterwards.
``lru``
    Classic recency cache: every whole-partition ship is admitted,
    evicting the least-recently-touched residents to make room.
``frontier-aware``
    Scores partitions by active-edge density (an exponential moving
    average over iterations, decay 0.5) and evicts residents whose
    frontier collapsed — two consecutive iterations without an active
    edge — so hot partitions of the *current* wavefront can take their
    place.  Admission never displaces a partition scoring higher than
    the newcomer.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cache.manager import CacheManager

__all__ = [
    "EvictionPolicy",
    "StaticPrefixPolicy",
    "LruPolicy",
    "FrontierAwarePolicy",
    "CACHE_POLICIES",
    "make_policy",
]


class EvictionPolicy(ABC):
    """Strategy object deciding cache residency, one instance per manager."""

    #: Registry / CLI name.
    name: str = "policy"

    #: Adaptive policies start empty and (re)populate at runtime; the
    #: static policy pins its resident set once at construction.
    adaptive: bool = True

    def bind(self, manager: "CacheManager") -> None:
        """Attach to the owning manager and size the per-partition state."""
        self.manager = manager
        self.reset()

    def reset(self) -> None:
        """Forget all recency/score state (between cold runs)."""

    def initial_resident(self) -> np.ndarray:
        """Partitions resident before the first iteration (static only)."""
        return np.zeros(self.manager.num_partitions, dtype=bool)

    def on_hit(self, partition: int) -> None:
        """A resident partition's cached bytes were read again."""

    def on_admit(self, partition: int) -> None:
        """A shipped partition was admitted into the resident set."""

    def observe_window(self, window_active_edges: np.ndarray) -> None:
        """Mid-iteration view of the accumulating frontier window."""

    @abstractmethod
    def victims(self, device: int, incoming: int, needed_bytes: int) -> list[int] | None:
        """Residents of ``device`` to evict so ``incoming`` fits.

        Returns ``None`` to decline admission (the ship stays transient);
        otherwise the returned partitions are evicted and ``incoming``
        is admitted.  ``needed_bytes`` is how many bytes must be freed.
        """

    def commit_window(self, window_active_edges: np.ndarray) -> list[int]:
        """Fold one iteration's frontier observation; return partitions to evict.

        ``window_active_edges[p]`` is the largest active-edge count any
        query observed in partition ``p`` since the previous commit.
        """
        return []


class StaticPrefixPolicy(EvictionPolicy):
    """Pin each shard's leading partitions; never evict, never admit.

    Bitwise-identical to the pre-cache shard-residency behaviour: the
    resident prefix is computed once from the per-device budget, each
    resident partition is billed exactly once on first touch, and
    everything else is re-billed every iteration.
    """

    name = "static-prefix"
    adaptive = False

    def initial_resident(self) -> np.ndarray:
        manager = self.manager
        resident = np.zeros(manager.num_partitions, dtype=bool)
        for device in range(manager.num_devices):
            budget = manager.budget_bytes[device]
            for index in range(*manager.sharding.partition_bounds[device : device + 2]):
                edge_bytes = manager.partitioning.edge_bytes[index]
                if edge_bytes > budget:
                    break
                resident[index] = True
                budget -= edge_bytes
        return resident

    def victims(self, device: int, incoming: int, needed_bytes: int) -> list[int] | None:
        return None  # the static set never changes


class LruPolicy(EvictionPolicy):
    """Evict the least-recently-touched resident to admit every ship."""

    name = "lru"

    def reset(self) -> None:
        self._tick = 0
        self._last_touch = np.zeros(self.manager.num_partitions, dtype=np.int64)

    def _touch(self, partition: int) -> None:
        self._tick += 1
        self._last_touch[partition] = self._tick

    def on_hit(self, partition: int) -> None:
        self._touch(partition)

    def on_admit(self, partition: int) -> None:
        self._touch(partition)

    def victims(self, device: int, incoming: int, needed_bytes: int) -> list[int] | None:
        # Pure selection: recency is stamped on admission (on_admit), so
        # dry runs through CacheManager.would_admit leave no trace.
        manager = self.manager
        chosen: list[int] = []
        freed = 0
        candidates = manager.resident_on_device(device)
        order = candidates[np.argsort(self._last_touch[candidates], kind="stable")]
        for victim in order:
            if freed >= needed_bytes:
                break
            chosen.append(int(victim))
            freed += manager.partitioning.edge_bytes[victim]
        return chosen if freed >= needed_bytes else None


class FrontierAwarePolicy(EvictionPolicy):
    """Score partitions by active-edge density; evict the collapsed ones.

    The score is an exponential moving average of per-iteration
    active-edge density (active edges / partition edges), so partitions
    that were recently hot keep priority for a few iterations after
    their frontier moves on.  A resident partition that saw no active
    edge for :attr:`IDLE_EVICT_AFTER` consecutive iterations is considered
    collapsed and evicted at the iteration boundary, freeing budget for
    the partitions the wavefront is entering.
    """

    name = "frontier-aware"

    #: Weight of the previous score in the moving average.
    DECAY = 0.5
    #: Consecutive iterations without an active edge before eviction.
    IDLE_EVICT_AFTER = 2

    def reset(self) -> None:
        num_partitions = self.manager.num_partitions
        self._score = np.zeros(num_partitions, dtype=np.float64)
        self._idle = np.zeros(num_partitions, dtype=np.int64)
        self._window_density = np.zeros(num_partitions, dtype=np.float64)
        self._edges_safe = np.maximum(self.manager.partitioning.edges, 1).astype(np.float64)

    def _effective_score(self, partition: int) -> float:
        # The EMA lags one iteration; blend in the current window so a
        # partition the wavefront just entered can displace cold ones.
        return max(self._score[partition], self._window_density[partition])

    def observe_window(self, window_active_edges: np.ndarray) -> None:
        self._window_density = window_active_edges / self._edges_safe

    def commit_window(self, window_active_edges: np.ndarray) -> list[int]:
        density = window_active_edges / self._edges_safe
        self._score = self.DECAY * self._score + (1.0 - self.DECAY) * density
        active = window_active_edges > 0
        self._idle[active] = 0
        self._idle[~active] += 1
        self._window_density = density
        collapsed = self.manager.resident & (self._idle >= self.IDLE_EVICT_AFTER)
        return [int(p) for p in np.flatnonzero(collapsed)]

    def victims(self, device: int, incoming: int, needed_bytes: int) -> list[int] | None:
        manager = self.manager
        incoming_score = self._effective_score(incoming)
        candidates = manager.resident_on_device(device)
        scores = np.array([self._effective_score(int(p)) for p in candidates])
        order = candidates[np.argsort(scores, kind="stable")]
        chosen: list[int] = []
        freed = 0
        for victim in order:
            if freed >= needed_bytes:
                break
            if self._effective_score(int(victim)) >= incoming_score:
                # Never displace a partition at least as hot as the
                # newcomer; the ship stays transient instead.
                return None
            chosen.append(int(victim))
            freed += manager.partitioning.edge_bytes[victim]
        return chosen if freed >= needed_bytes else None


CACHE_POLICIES: dict[str, type[EvictionPolicy]] = {
    StaticPrefixPolicy.name: StaticPrefixPolicy,
    LruPolicy.name: LruPolicy,
    FrontierAwarePolicy.name: FrontierAwarePolicy,
}


def make_policy(name: str | EvictionPolicy) -> EvictionPolicy:
    """Instantiate a policy by registry name (or pass an instance through)."""
    if isinstance(name, EvictionPolicy):
        return name
    try:
        policy_cls = CACHE_POLICIES[name.lower()]
    except KeyError:
        raise KeyError(
            "unknown cache policy %r; available: %s" % (name, ", ".join(sorted(CACHE_POLICIES)))
        ) from None
    return policy_cls()
