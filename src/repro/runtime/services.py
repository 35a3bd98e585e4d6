"""Service lifecycle kernel: what the cluster starts and stops.

Every long-lived cluster subsystem — failure injector, heartbeat or oracle
detector, replication monitor, JobTracker, DataNodes, TaskTrackers,
network, trace recorder, auditor — implements the structural
:class:`Service` protocol, and :class:`Cluster` owns them through a
:class:`ServiceRegistry`. Teardown is a loop (reverse registration order,
so consumers stop before producers) instead of a hand-maintained list of
special cases.

The protocol is structural (:func:`typing.runtime_checkable`): subsystems
do not import this module or inherit anything — they just grow ``start``
and ``stop``. Conformance is checked statically: mypy's typed core covers
the registration sites, and simlint's C003 keeps ``start`` and ``stop``
paired.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Protocol, runtime_checkable


@runtime_checkable
class Service(Protocol):
    """Structural lifecycle contract for cluster subsystems."""

    def start(self) -> None:
        """Begin operating. Idempotent; wiring happened at construction."""

    def stop(self) -> None:
        """Disarm every scheduled event and go permanently quiet.

        After every registered service stops, the simulator heap must
        drain naturally — nothing re-arms.
        """


class ServiceRegistry:
    """Services in registration order: started in it, stopped in reverse."""

    def __init__(self) -> None:
        self._ordered: List[Service] = []

    def register(self, service: Service) -> None:
        """Add a service; registration order is start order."""
        self._ordered.append(service)

    def register_bulk(self, services: Iterable[Service]) -> None:
        """Add many services (the per-node agents), in iteration order."""
        self._ordered.extend(services)

    def __len__(self) -> int:
        return len(self._ordered)

    def __iter__(self) -> Iterator[Service]:
        return iter(self._ordered)

    def start_all(self) -> None:
        """Start services in registration order (producers first)."""
        for service in self._ordered:
            service.start()

    def stop_all(self) -> None:
        """Stop services in *reverse* registration order.

        Consumers (schedulers, monitors) stop before producers (injector,
        network), so teardown never publishes into a torn-down upstream.
        """
        for service in reversed(self._ordered):
            service.stop()


__all__ = ["Service", "ServiceRegistry"]
