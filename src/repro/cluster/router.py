"""Consistent-hash request routing across service replicas.

The router answers one question per submission: *which host serves this
request?*  Affinity comes first — requests hash to hosts by their
session key (the request label, falling back to the request id) on a
ring with a fixed :data:`VNODES_PER_HOST` points per host, so a
session's partitions stay warm in one replica's device cache instead of
thrashing every cache a little.  When the affine host is saturated (its
circuit breaker is open, or its admission budget is backed up) the
request *spills* to the least-loaded replica with room; only when every
alive replica would refuse the request does the cluster reject it.

Determinism is load-bearing: the hash is :func:`hashlib.blake2b` over
the key bytes — seed-free, ``PYTHONHASHSEED``-independent, stable across
processes and platforms — and every tie in the spill order is broken by
host index.  Identical request streams against identical cluster state
route identically, which is what the router-determinism tests and the
bitwise scaling benchmark assert.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Callable, Sequence

__all__ = ["ConsistentHashRing", "Router"]

#: Virtual nodes per host on the hash ring.  Enough that key→host
#: assignment is roughly uniform, few enough that ring construction and
#: lookups stay trivial at single-digit host counts.
VNODES_PER_HOST = 64


def stable_hash(key: str) -> int:
    """A 64-bit seed-free hash of ``key``, stable across runs/platforms."""
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class ConsistentHashRing:
    """Classic consistent hashing: hosts × :data:`VNODES_PER_HOST` virtual
    nodes on a 64-bit ring.

    Host loss needs no ring rebuild — lookups take the set of alive
    hosts and walk clockwise past dead vnodes, so only the keys that
    hashed to the lost host move (to their next survivor), while every
    other key keeps its placement and its warmed cache.
    """

    def __init__(self, hosts: int):
        if hosts < 1:
            raise ValueError("hosts must be at least 1")
        self.hosts = hosts
        points = [
            (stable_hash("host%d#%d" % (host, vnode)), host)
            for host in range(hosts)
            for vnode in range(VNODES_PER_HOST)
        ]
        points.sort()
        self._points = [point for point, _ in points]
        self._owners = [host for _, host in points]

    def affine_host(self, key: str, alive: Sequence[int]) -> int:
        """The alive host ``key`` hashes to (clockwise past dead vnodes)."""
        living = set(alive)
        if not living:
            raise ValueError("no alive host to route to")
        start = bisect.bisect_right(self._points, stable_hash(key))
        for offset in range(len(self._owners)):
            owner = self._owners[(start + offset) % len(self._owners)]
            if owner in living:
                return owner
        raise AssertionError("unreachable: ring holds every host")


class Router:
    """Routing policy + counters of one cluster front-end.

    The decision procedure (all probes side-effect-free):

    1. the affine host, unless *saturated* — affinity hit;
    2. otherwise the first non-saturated host in least-loaded order —
       spill;
    3. otherwise (everything saturated) the affine host, unless it would
       outright *refuse* the request — affinity hit (it queues);
    4. otherwise the first non-refusing host in least-loaded order —
       spill;
    5. otherwise a cluster-level rejection: the request is submitted to
       the affine host anyway so its admission controller produces the
       properly-reasoned ``REJECTED`` handle.
    """

    def __init__(self, hosts: int):
        self.ring = ConsistentHashRing(hosts)
        #: Requests served by their hash-affine host.
        self.affinity_hits = 0
        #: Requests diverted off their affine host by load.
        self.spills = 0
        #: Requests every alive replica refused.
        self.rejections = 0
        #: Queued/suspended queries migrated off a lost host.
        self.failovers = 0

    def route(
        self,
        key: str,
        alive: Sequence[int],
        load_order: Sequence[int],
        saturated: Callable[[int], bool],
        refuses: Callable[[int], bool],
    ) -> tuple[int, str]:
        """Pick the serving host; returns ``(host, outcome)``.

        ``outcome`` is ``"affinity"``, ``"spill"`` or ``"reject"`` (the
        matching counter is incremented).  ``load_order`` must list the
        alive hosts from least to most loaded with index tie-breaks, so
        identical cluster state yields identical spill targets.
        """
        affine = self.ring.affine_host(key, alive)
        if not saturated(affine):
            self.affinity_hits += 1
            return affine, "affinity"
        for host in load_order:
            if host != affine and not saturated(host):
                self.spills += 1
                return host, "spill"
        if not refuses(affine):
            self.affinity_hits += 1
            return affine, "affinity"
        for host in load_order:
            if host != affine and not refuses(host):
                self.spills += 1
                return host, "spill"
        self.rejections += 1
        return affine, "reject"

    def counters(self) -> dict[str, int]:
        """The router's counter snapshot (the ``cluster.router`` stats block)."""
        return {
            "affinity_hits": self.affinity_hits,
            "spills": self.spills,
            "rejections": self.rejections,
            "failovers": self.failovers,
        }
