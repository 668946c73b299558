"""One dataclass describing a simulated multi-node deployment.

A :class:`ClusterConfig` layers cluster topology — how many hosts, how
many GPUs each, which network fabric connects them — on top of one
:class:`~repro.service.config.ServiceConfig` that every replica shares,
and is the one place that topology is validated (host and GPU counts,
network preset names).  The single-host serving knobs keep their exact
semantics per replica (each host runs its own admission controller,
circuit breaker and fault injector); the only schedule entries the
cluster layer claims for itself are the ``host-loss`` specs, which a
single host cannot interpret.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.faults.spec import FaultSpec
from repro.service.config import ServiceConfig
from repro.sim.config import NetworkConfig

__all__ = ["ClusterConfig"]


@dataclass(frozen=True)
class ClusterConfig:
    """Everything a :class:`~repro.cluster.ClusterService` needs to exist.

    Attributes
    ----------
    hosts:
        Number of simulated hosts; each runs one full
        :class:`~repro.service.GraphService` replica with its own warmed
        execution context and device cache.
    gpus_per_host:
        Devices of each replica's platform (overrides the service
        config's ``devices`` when the cluster builds the replicas).
    network:
        The host interconnect — a preset name (``"tcp"`` / ``"rdma"`` /
        ``"ethernet-10g"``) or an explicit
        :class:`~repro.sim.config.NetworkConfig`.  Every byte that
        crosses host boundaries (checkpoint shipping on failover) is
        billed at this fabric's latency + bandwidth.
    service:
        The per-replica serving config.  Its ``host-loss`` fault specs
        are interpreted at the cluster layer (one whole replica
        disappears at a cluster wave boundary); everything else is
        handed to each replica unchanged.
    """

    hosts: int = 1
    gpus_per_host: int = 1
    network: NetworkConfig | str = "tcp"
    service: ServiceConfig = field(default_factory=ServiceConfig)

    def __post_init__(self) -> None:
        if self.hosts < 1:
            raise ValueError("hosts must be at least 1")
        if self.gpus_per_host < 1:
            raise ValueError("gpus_per_host must be at least 1")
        if isinstance(self.network, str):
            object.__setattr__(self, "network", NetworkConfig.from_preset(self.network))
        elif not isinstance(self.network, NetworkConfig):
            raise ValueError("network must be a NetworkConfig or a preset name")
        if not isinstance(self.service, ServiceConfig):
            raise ValueError("service must be a ServiceConfig")
        for spec in self.host_loss_specs():
            if spec.host is not None and spec.host >= self.hosts:
                raise ValueError(
                    "host-loss targets host=%d, but the cluster's hosts are [0, %d)"
                    % (spec.host, self.hosts)
                )

    def host_loss_specs(self) -> tuple[FaultSpec, ...]:
        """The ``host-loss`` specs the cluster layer interprets itself."""
        if self.service.faults is None:
            return ()
        return self.service.faults.host_loss_specs()

    def replica_config(self) -> ServiceConfig:
        """The per-host :class:`ServiceConfig` each replica is built from.

        Identical to :attr:`service` except that the device count is the
        cluster's ``gpus_per_host`` and the ``host-loss`` fault specs are
        stripped (the single-host injector cannot interpret them; the
        cluster fires them at wave boundaries instead).
        """
        faults = self.service.faults
        if faults is not None:
            faults = faults.without_host_loss()
        return replace(self.service, devices=self.gpus_per_host, faults=faults)
