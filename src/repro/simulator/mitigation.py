"""Link-degradation mitigation: how the cluster answers a limping link.

A :class:`~repro.simulator.scenarios.DegradedLink` scenario says *what*
happened to a link — it forwards at ``capacity_factor`` of nominal and
corrupts ``corruption_rate`` of what it carries. What transfers actually
feel depends on the operator's response, and the whole point of the
scenario family is comparing responses. :class:`LinkMitigationService`
is one service class with three interchangeable strategies (selected by
``ClusterConfig.link_mitigation``), so swapping the response never
rewires the bus:

``do-nothing``
    The degradation passes straight through to end-to-end transport.
    Corrupted bytes are detected and re-sent across the *whole path*
    after recovery stalls, so goodput takes the survival rate twice:
    ``capacity_factor * (1 - corruption_rate)**2``.

``retransmit-tax``
    LinkGuardian-style link-local retransmission: corruption is repaired
    hop-locally, invisible to transport, at the price of the corrupted
    fraction of the link's remaining capacity:
    ``capacity_factor * (1 - corruption_rate)``.

``disable-and-reroute``
    The degraded trunk member is administratively disabled and its
    traffic rerouted over the remaining ECMP members: corruption
    disappears entirely and the trunk keeps ``(width-1)/width`` of its
    capacity. A single-cable link (width 1, e.g. a host access link)
    cannot be rerouted, so the strategy degrades to ``do-nothing`` there.

The service subscribes to :class:`~repro.simulator.events.LinkDegraded`
/ :class:`~repro.simulator.events.LinkRestored` at the NETWORK phase and
applies its verdict by pushing/popping multiplicative capacity scales on
the :class:`~repro.simulator.network.Network` — overlapping degradations
on one link therefore compose, and every restore releases exactly the
effect its opening event applied.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.ids import NodeIds
from repro.simulator.events import LinkDegraded, LinkRestored
from repro.simulator.network import Network
from repro.simulator.topology import LinkKey, parse_link_spec

__all__ = ["LinkMitigationService", "MITIGATIONS"]

#: Valid ``link_mitigation=`` spellings ("none" disables the service).
MITIGATIONS = ("do-nothing", "disable-reroute", "retransmit-tax")


class LinkMitigationService:
    """Applies one mitigation strategy to every degraded-link window."""

    def __init__(
        self,
        network: Network,
        strategy: str = "do-nothing",
        ids: Optional[NodeIds] = None,
    ) -> None:
        if strategy not in MITIGATIONS:
            raise ValueError(
                f"unknown mitigation strategy {strategy!r}; expected one of "
                f"{MITIGATIONS}"
            )
        self._network = network
        self._strategy = strategy
        self._ids = ids
        #: Scales currently held, keyed by the event's link spec; each
        #: entry is (parsed link, applied factor) in arming order so a
        #: restore releases the oldest matching application.
        self._held: Dict[str, List[Tuple[LinkKey, float]]] = {}

    @property
    def strategy(self) -> str:
        return self._strategy

    # -- strategy verdict --------------------------------------------------

    def effective_factor(
        self, link: LinkKey, capacity_factor: float, corruption_rate: float
    ) -> float:
        """The capacity scale transfers feel on ``link`` under this strategy."""
        if self._strategy == "disable-reroute":
            width = self._network.topology.link_width(link)
            if width > 1:
                # Disable the bad member; siblings absorb its share.
                return (width - 1) / width
            # An unreroutable single cable: nothing to disable onto.
        if self._strategy == "retransmit-tax":
            return capacity_factor * (1.0 - corruption_rate)
        survival = 1.0 - corruption_rate
        return capacity_factor * survival * survival

    # -- bus handlers ------------------------------------------------------

    def handle_link_degraded(self, event: LinkDegraded) -> None:
        """Degradation window opened (NETWORK phase): apply the verdict."""
        link = self._parse(event.link)
        factor = self.effective_factor(
            link, event.capacity_factor, event.corruption_rate
        )
        self._network.scale_link(link, factor)
        self._held.setdefault(event.link, []).append((link, factor))

    def handle_link_restored(self, event: LinkRestored) -> None:
        """Window closed (NETWORK phase): release what its opening applied."""
        held = self._held.get(event.link)
        if not held:
            return  # restore without a matching degrade: nothing to lift
        link, factor = held.pop(0)
        if not held:
            del self._held[event.link]
        self._network.unscale_link(link, factor)

    def _parse(self, spec: str) -> LinkKey:
        intern = self._ids.id_of if self._ids is not None else None
        return parse_link_spec(spec, intern=intern)

    # -- service lifecycle -------------------------------------------------

    def start(self) -> None:
        """No-op: the service is passive until a degradation arrives."""

    def stop(self) -> None:
        """Release every still-held scale (campaign cut short at teardown)."""
        for held in self._held.values():
            for link, factor in held:
                self._network.unscale_link(link, factor)
        self._held.clear()
