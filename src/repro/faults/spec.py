"""Typed, seed-deterministic fault specifications.

A :class:`FaultSpec` names one thing that goes wrong on the simulated
platform; a :class:`FaultSchedule` bundles several specs with the seed
that makes every random draw (transient transfer failures) reproducible.
The schedule is pure data — the :class:`~repro.faults.injector.FaultInjector`
interprets it at runtime boundaries, and the same (schedule, seed) pair
always produces the same injected faults, which is what lets the chaos
grid assert bitwise-equal recovered values against a fault-free run.

Four fault kinds cover the failure surface of a multi-GPU serving host:

``device-loss``
    One GPU disappears permanently at super-iteration ``k``.  Its shard
    is remapped onto the survivors (host fallback when none remain) and
    every live query rolls back to its last checkpoint.
``transfer-flaky``
    Each PCIe transfer fails independently with probability ``p`` from
    super-iteration ``k`` on.  Failures are retried with exponential
    backoff (:func:`backoff_seconds`); a transfer that fails all
    :data:`MAX_ATTEMPTS` sends fails the owning query permanently.
``memory-pressure``
    The per-device cache budget shrinks by ``factor`` at super-iteration
    ``k`` (a co-tenant grabbed device memory); over-budget residents are
    evicted immediately.
``interconnect-degrade``
    Boundary-synchronisation traffic slows down by ``factor`` from
    super-iteration ``k`` on (link contention, a failed NVLink lane).

A fifth kind covers the multi-node tier:

``host-loss``
    One whole simulated host disappears at *cluster wave* ``k``.  This
    is a cluster-level fault: the single-host
    :class:`~repro.faults.injector.FaultInjector` skips it, and the
    :class:`~repro.cluster.ClusterService` interprets it instead —
    shipping the lost host's in-flight checkpoints to surviving
    replicas over the network.

The compact text form parsed by :meth:`FaultSchedule.parse` is what the
CLI's ``serve --faults`` flag accepts::

    device-loss@3:device=1;transfer-flaky:p=0.05;host-loss@4:host=1
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

__all__ = ["FaultKind", "FaultSpec", "FaultSchedule", "MAX_ATTEMPTS", "backoff_seconds"]


class FaultKind(Enum):
    """The injectable fault taxonomy."""

    #: Permanent loss of one device at a super-iteration boundary.
    DEVICE_LOSS = "device-loss"
    #: Transient per-transfer failure with probability ``p``.
    TRANSFER_FLAKY = "transfer-flaky"
    #: Mid-run shrink of the per-device cache budget.
    MEMORY_PRESSURE = "memory-pressure"
    #: Multiplicative slowdown of the inter-GPU boundary exchange.
    INTERCONNECT_DEGRADE = "interconnect-degrade"
    #: Permanent loss of one whole simulated host at a cluster wave
    #: boundary (interpreted by the cluster tier, not the injector).
    HOST_LOSS = "host-loss"

    @classmethod
    def parse(cls, value: "FaultKind | str") -> "FaultKind":
        """Coerce a member or its registry name (``"device-loss"``)."""
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).strip().lower())
        except ValueError:
            raise ValueError(
                "unknown fault kind %r; pick one of: %s"
                % (value, ", ".join(member.value for member in cls))
            ) from None


@dataclass(frozen=True)
class FaultSpec:
    """One injectable fault.

    Attributes
    ----------
    kind:
        Which :class:`FaultKind` this spec injects.
    at_super_iteration:
        The super-iteration boundary the fault takes effect at
        (``transfer-flaky`` stays active from there on; the other kinds
        fire exactly once).  For ``host-loss`` the index counts
        *cluster waves* served, not super-iterations.
    device:
        ``device-loss`` only: which device dies (default: the last one).
    host:
        ``host-loss`` only: which host dies (default: the last one).
    probability:
        ``transfer-flaky`` only: per-transfer failure probability.
    factor:
        ``memory-pressure``: the budget multiplier in ``(0, 1]``;
        ``interconnect-degrade``: the finite slowdown multiplier ``>= 1``.
    """

    kind: FaultKind
    at_super_iteration: int = 0
    device: int | None = None
    probability: float | None = None
    factor: float | None = None
    host: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "kind", FaultKind.parse(self.kind))
        if self.at_super_iteration < 0:
            raise ValueError("at_super_iteration must be non-negative")
        if self.kind is FaultKind.DEVICE_LOSS:
            if self.device is not None and self.device < 0:
                raise ValueError("device must be non-negative")
        elif self.device is not None:
            raise ValueError("device= applies only to device-loss faults")
        if self.kind is FaultKind.HOST_LOSS:
            if self.host is not None and self.host < 0:
                raise ValueError("host must be non-negative")
        elif self.host is not None:
            raise ValueError("host= applies only to host-loss faults")
        if self.kind is FaultKind.TRANSFER_FLAKY:
            if self.probability is None or not 0.0 < self.probability <= 1.0:
                raise ValueError("transfer-flaky needs a probability p in (0, 1]")
        elif self.probability is not None:
            raise ValueError("p= applies only to transfer-flaky faults")
        if self.kind is FaultKind.MEMORY_PRESSURE:
            if self.factor is None or not 0.0 < self.factor <= 1.0:
                raise ValueError("memory-pressure needs a factor in (0, 1]")
        elif self.kind is FaultKind.INTERCONNECT_DEGRADE:
            # An infinite (or NaN) slowdown would make every later sync infinite.
            if self.factor is None or not 1.0 <= self.factor < math.inf:
                raise ValueError("interconnect-degrade needs a finite factor >= 1")
        elif self.factor is not None:
            raise ValueError(
                "factor= applies only to memory-pressure/interconnect-degrade faults"
            )


#: Per-kind key=value options accepted by :meth:`FaultSchedule.parse`.
_PARSE_KEYS = {
    FaultKind.DEVICE_LOSS: {"device": int},
    FaultKind.TRANSFER_FLAKY: {"p": float, "probability": float},
    FaultKind.MEMORY_PRESSURE: {"factor": float},
    FaultKind.INTERCONNECT_DEGRADE: {"factor": float},
    FaultKind.HOST_LOSS: {"host": int},
}


@dataclass(frozen=True)
class FaultSchedule:
    """An ordered set of fault specs plus the chaos seed.

    The seed drives every random draw the injector makes (transfer-flaky
    failures); two injectors built from equal schedules inject byte-
    identical fault sequences on the same workload.
    """

    specs: tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "specs", tuple(self.specs))
        for spec in self.specs:
            if not isinstance(spec, FaultSpec):
                raise TypeError("FaultSchedule.specs must hold FaultSpec objects")

    def host_loss_specs(self) -> tuple[FaultSpec, ...]:
        """The cluster-level ``host-loss`` specs of this schedule."""
        return tuple(
            spec for spec in self.specs if spec.kind is FaultKind.HOST_LOSS
        )

    def without_host_loss(self) -> "FaultSchedule | None":
        """The host-local remainder of the schedule (``None`` when empty).

        The cluster tier hands this to each replica's injector: every
        per-host fault kind keeps its semantics unchanged, while the
        ``host-loss`` specs are interpreted at the cluster layer.
        """
        specs = tuple(
            spec for spec in self.specs if spec.kind is not FaultKind.HOST_LOSS
        )
        if not specs:
            return None
        return FaultSchedule(specs=specs, seed=self.seed)

    @classmethod
    def parse(cls, text: str, seed: int = 0) -> "FaultSchedule":
        """Parse the compact CLI form.

        ``;``-separated entries, each ``kind[@super][:key=value,...]``::

            device-loss@3:device=1;transfer-flaky:p=0.05

        Raises ``ValueError`` with the offending entry named.
        """
        specs: list[FaultSpec] = []
        for entry in text.split(";"):
            entry = entry.strip()
            if not entry:
                continue
            head, _, options = entry.partition(":")
            name, _, at_text = head.partition("@")
            kind = FaultKind.parse(name)
            kwargs: dict[str, object] = {"kind": kind}
            if at_text:
                try:
                    kwargs["at_super_iteration"] = int(at_text)
                except ValueError:
                    raise ValueError(
                        "bad fault entry %r: %r is not a super-iteration index"
                        % (entry, at_text)
                    ) from None
            keys = _PARSE_KEYS[kind]
            for pair in filter(None, (p.strip() for p in options.split(","))):
                key, sep, value = pair.partition("=")
                key = key.strip().lower()
                if not sep or key not in keys:
                    raise ValueError(
                        "bad fault entry %r: expected %s"
                        % (entry, "/".join("%s=..." % k for k in keys))
                    )
                try:
                    parsed = keys[key](value.strip())
                except ValueError:
                    raise ValueError(
                        "bad fault entry %r: %r is not a valid %s" % (entry, value, key)
                    ) from None
                field = "probability" if key == "p" else key
                if field in kwargs:
                    raise ValueError("bad fault entry %r: %s given twice" % (entry, field))
                kwargs[field] = parsed
            try:
                specs.append(FaultSpec(**kwargs))
            except ValueError as error:
                raise ValueError("bad fault entry %r: %s" % (entry, error)) from None
        if not specs:
            raise ValueError("empty fault schedule %r" % text)
        return cls(specs=tuple(specs), seed=seed)


#: Total sends of one transfer (the first try plus retries); a transfer
#: whose every attempt fails is a permanent fault and fails the owning
#: query.
MAX_ATTEMPTS = 4


def backoff_seconds(failed_attempts: int) -> float:
    """Total backoff wait after ``failed_attempts`` consecutive failures.

    The ``i``-th retry waits ``1e-5 * 2**i`` simulated seconds before
    re-sending; backoff and re-send time are billed into the simulated
    timeline.
    """
    return sum(1e-5 * 2.0**i for i in range(failed_attempts))
