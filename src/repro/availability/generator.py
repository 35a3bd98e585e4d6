"""Host availability construction: Table 2 emulation groups and helpers.

The paper's emulated environment (Section V.A) interrupts a configurable
fraction of the nodes; interrupted nodes are split evenly across four groups
whose MTBI / mean recovery times come from Table 2. This module builds the
per-host availability descriptions the cluster builder consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from repro.availability.distributions import Distribution, Exponential
from repro.availability.process import InterruptionProcess
from repro.util.rng import RandomSource
from repro.util.validation import check_positive, check_probability


@dataclass(frozen=True)
class GroupSpec:
    """One availability group: MTBI and mean recovery (paper Table 2)."""

    name: str
    mtbi: float
    service_mean: float

    def __post_init__(self) -> None:
        check_positive("mtbi", self.mtbi)
        check_positive("service_mean", self.service_mean)

    @property
    def arrival_rate(self) -> float:
        """lambda = 1/MTBI."""
        return 1.0 / self.mtbi


def table2_groups() -> List[GroupSpec]:
    """The four interruption groups of the paper's Table 2."""
    return [
        GroupSpec(name="group-1", mtbi=10.0, service_mean=4.0),
        GroupSpec(name="group-2", mtbi=10.0, service_mean=8.0),
        GroupSpec(name="group-3", mtbi=20.0, service_mean=4.0),
        GroupSpec(name="group-4", mtbi=20.0, service_mean=8.0),
    ]


@dataclass
class HostAvailability:
    """Availability description for one host.

    ``arrival is None`` marks a dedicated (never-interrupted) host. For
    interrupted hosts, ``arrival`` is the interruption inter-arrival
    distribution and ``service`` the recovery-time distribution.
    """

    host_id: str
    arrival: Optional[Distribution] = None
    service: Optional[Distribution] = None
    group: str = "dedicated"

    def __post_init__(self) -> None:
        if (self.arrival is None) != (self.service is None):
            raise ValueError(
                "arrival and service must both be set (interrupted host) "
                "or both be None (dedicated host)"
            )

    @property
    def is_dedicated(self) -> bool:
        """True when the host never gets interrupted."""
        return self.arrival is None

    @property
    def arrival_rate(self) -> float:
        """lambda; 0 for dedicated hosts."""
        if self.arrival is None:
            return 0.0
        return 1.0 / self.arrival.mean

    @property
    def mtbi(self) -> float:
        """Mean time between interruptions; infinity for dedicated hosts."""
        if self.arrival is None:
            return float("inf")
        return self.arrival.mean

    @property
    def service_mean(self) -> float:
        """mu; 0 for dedicated hosts."""
        if self.service is None:
            return 0.0
        return self.service.mean

    def process(self, rng: RandomSource) -> Optional[InterruptionProcess]:
        """An interruption process for this host (None when dedicated)."""
        if self.arrival is None or self.service is None:
            return None
        return InterruptionProcess(self.arrival, self.service, rng)


def count_unstable(hosts: Iterable[HostAvailability]) -> int:
    """Hosts with rho = lambda * mu >= 1.

    Such a host's interruption queue has no steady state: it has no
    stationary up state, and ADAPT gives it no placement mass.
    """
    return sum(1 for host in hosts if host.arrival_rate * host.service_mean >= 1.0)


def build_group_hosts(
    node_count: int,
    interrupted_ratio: float,
    groups: Optional[Sequence[GroupSpec]] = None,
    service_distribution: str = "exponential",
) -> List[HostAvailability]:
    """Build the paper's emulation population.

    ``interrupted_ratio`` of the ``node_count`` hosts are interrupted,
    split evenly (round-robin) across ``groups`` (Table 2 by default); the
    rest are dedicated. Interruption inter-arrivals are exponential, as the
    paper assumes; recovery times default to exponential with the group's
    mean (the model only requires the mean of a general distribution).
    """
    if node_count <= 0:
        raise ValueError(f"node_count must be positive, got {node_count}")
    check_probability("interrupted_ratio", interrupted_ratio)
    group_list = list(groups) if groups is not None else table2_groups()
    if interrupted_ratio > 0 and not group_list:
        raise ValueError("at least one group is required when hosts are interrupted")

    interrupted_count = int(round(node_count * interrupted_ratio))
    hosts: List[HostAvailability] = []
    for index in range(node_count):
        host_id = f"node-{index:05d}"
        if index < interrupted_count:
            spec = group_list[index % len(group_list)]
            hosts.append(
                HostAvailability(
                    host_id=host_id,
                    arrival=Exponential(mean=spec.mtbi),
                    service=_service_distribution(service_distribution, spec.service_mean),
                    group=spec.name,
                )
            )
        else:
            hosts.append(HostAvailability(host_id=host_id, group="dedicated"))
    return hosts


def _service_distribution(kind: str, mean: float) -> Distribution:
    """Build the recovery-time distribution for an emulation group."""
    from repro.availability.distributions import Deterministic, Lognormal

    kind = kind.lower()
    if kind == "exponential":
        return Exponential(mean=mean)
    if kind == "deterministic":
        return Deterministic(value=mean)
    if kind == "lognormal":
        return Lognormal(mean=mean, cov=1.0)
    raise ValueError(f"unknown service distribution kind {kind!r}")
