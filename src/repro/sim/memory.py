"""The unified-memory page cache.

:class:`PageCache` is the 4-KB-page LRU cache behind the unified-memory
transfer engine.  Accessing a set of pages returns how many hit the
cache and how many fault (and therefore must be migrated over PCIe);
when the cache is full, the least recently used pages are evicted.
Because the paper enables ``cudaMemAdviseSetReadMostly`` (Section III-C)
evicted pages are discarded, not written back.  Device-memory capacity
itself is a :class:`~repro.sim.config.HardwareConfig` number that the
device cache (:mod:`repro.cache`) budgets against.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

__all__ = ["PageCache", "PageAccessResult"]


@dataclass(frozen=True)
class PageAccessResult:
    """Outcome of one batch of page accesses against the cache."""

    hits: int
    faults: int
    evictions: int


@dataclass
class PageCacheStats:
    """Cumulative statistics of a :class:`PageCache`."""

    accesses: int = 0
    hits: int = 0
    faults: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of accessed pages served from the cache."""
        return self.hits / self.accesses if self.accesses else 0.0


class PageCache:
    """LRU cache of unified-memory pages resident in device memory."""

    def __init__(self, capacity_pages: int):
        if capacity_pages < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity_pages = int(capacity_pages)
        self._pages: OrderedDict[int, None] = OrderedDict()
        self.stats = PageCacheStats()

    @property
    def resident_pages(self) -> int:
        """Number of pages currently cached."""
        return len(self._pages)

    def is_resident(self, page_id: int) -> bool:
        """Whether ``page_id`` is currently in device memory."""
        return page_id in self._pages

    def access(self, page_ids: np.ndarray) -> PageAccessResult:
        """Access a batch of pages, migrating the missing ones.

        Pages that miss are faulted in; if the cache is full the least
        recently used resident pages are evicted (and discarded — the edge
        data is read-only).  Returns hit/fault/eviction counts for the
        batch, which the unified-memory engine converts into time.
        """
        page_ids = np.asarray(page_ids, dtype=np.int64)
        hits = 0
        faults = 0
        evictions = 0
        for page_id in page_ids.tolist():
            if page_id in self._pages:
                hits += 1
                self._pages.move_to_end(page_id)
                continue
            faults += 1
            if self.capacity_pages == 0:
                continue
            if len(self._pages) >= self.capacity_pages:
                self._pages.popitem(last=False)
                evictions += 1
            self._pages[page_id] = None
        self.stats.accesses += hits + faults
        self.stats.hits += hits
        self.stats.faults += faults
        self.stats.evictions += evictions
        return PageAccessResult(hits=hits, faults=faults, evictions=evictions)

    def pin(self, page_ids: np.ndarray) -> int:
        """Insert pages without counting them as faults (Grus-style prefetch).

        Returns the number of pages actually inserted (stops when the cache
        is full; prefetched pages are never evicted by :meth:`pin`).
        """
        inserted = 0
        for page_id in np.asarray(page_ids, dtype=np.int64).tolist():
            if page_id in self._pages:
                continue
            if len(self._pages) >= self.capacity_pages:
                break
            self._pages[page_id] = None
            inserted += 1
        return inserted

    def clear(self) -> None:
        """Drop every cached page (new run)."""
        self._pages.clear()
