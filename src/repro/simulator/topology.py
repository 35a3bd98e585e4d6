"""Network fabric: the link structure under the flow-level model.

The paper's network (Sections V.A and V.C) is a flat star: every host
hangs off one switch through one shaped access link, so a transfer
touches exactly two directed links, the source's uplink and the
destination's downlink.

:class:`ClosTopology` is the one fabric. Hosts hang off top-of-rack
(ToR) switches, and the ToRs off a non-blocking spine. With one rack it
*is* the flat star (``topology="flat"``): every path is the two access
links, and there are no fabric links. With more racks a cross-rack
transfer also crosses its source rack's ToR uplink trunk and its
destination rack's downlink trunk, and the max-min progressive-filling
allocator in :mod:`repro.simulator.network` runs over every link on the
path. A trunk carries an *oversubscription* ratio: it provides
``1/ratio`` of the aggregate access bandwidth beneath it, so cross-rack
traffic contends where a flat star never could.

Link keys
---------
A link is a ``(tier, id)`` tuple, directed by construction:

===========  ============================  =================================
tier         id                            meaning
===========  ============================  =================================
``up``       host :data:`NodeId`           host access link, host -> ToR
``down``     host :data:`NodeId`           host access link, ToR -> host
``tor-up``   rack index (int)              ToR trunk towards the spine
``tor-down`` rack index (int)              spine trunk towards the ToR
===========  ============================  =================================

Host tiers carry the :class:`~.network.Network`'s one host link rate;
fabric tiers take theirs from the topology (so oversubscription is a pure
function of the declared shape). On every tier the Network multiplies the
nominal capacity by the link's scale stack (gray windows, mitigation).
Chaos specs name links as ``"tier:id"`` strings — ``"tor-up:3"``,
``"up:node-00042"`` — parsed by :func:`parse_link_spec`.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple, Union

from repro.core.ids import NodeId
from repro.util.validation import check_positive

__all__ = [
    "LinkKey",
    "ClosTopology",
    "FABRIC_TIERS",
    "HOST_TIERS",
    "TRUNK_WIDTH",
    "parse_link_spec",
    "TOPOLOGIES",
]

#: One directed link: ``(tier, id)``. Host tiers carry a node id, fabric
#: tiers an int rack index.
LinkKey = Tuple[str, Union[NodeId, str, int]]

#: Tiers whose nominal capacity is the Network's host link rate.
HOST_TIERS = ("up", "down")
#: Tiers whose capacity the topology owns (oversubscribed trunks).
FABRIC_TIERS = ("tor-up", "tor-down")

#: ECMP members per fabric trunk. Only the disable-reroute mitigation
#: reads it: losing one member leaves ``(w-1)/w`` of the trunk.
TRUNK_WIDTH = 4

#: Valid ``topology=`` spellings, used by ClusterConfig validation.
TOPOLOGIES = ("flat", "clos")


class ClosTopology:
    """Hosts -> ToR -> spine, with oversubscribed ToR trunks.

    ``racks`` partitions hosts by ``node_id % racks`` (dense ids spread
    round-robin, so every rack stays balanced whatever the cluster
    size). A same-rack transfer crosses only the two host access links,
    so one rack is the paper's flat star, whatever the oversubscription
    (the golden byte-identity tests pin it).

    Trunk capacities derive from the declared shape: a ToR serves
    ``hosts/racks`` hosts, so each of its trunks provides that many host
    links of aggregate bandwidth divided by ``oversubscription``. Both
    directions carry the same capacity.

    ``path`` is called once per transfer and its result is interned on
    the :class:`~.network.Transfer`, so it is a pure function of the
    endpoints.
    """

    def __init__(
        self,
        hosts: int,
        racks: int,
        host_link_bps: float,
        oversubscription: float = 1.0,
    ) -> None:
        if hosts < 1:
            raise ValueError(f"hosts must be >= 1, got {hosts}")
        if racks < 1:
            raise ValueError(f"racks must be >= 1, got {racks}")
        if racks > hosts:
            raise ValueError(f"racks ({racks}) must not exceed hosts ({hosts})")
        check_positive("host_link_bps", host_link_bps)
        check_positive("oversubscription", oversubscription)
        self._hosts = int(hosts)
        self._racks = int(racks)
        self._oversub = float(oversubscription)
        self._tor = self._hosts / self._racks * float(host_link_bps) / self._oversub

    @property
    def racks(self) -> int:
        return self._racks

    def rack_of(self, node_id: NodeId) -> int:
        """The rack index a host lives in."""
        return int(node_id) % self._racks

    def path(self, source: NodeId, destination: NodeId) -> Tuple[LinkKey, ...]:
        """Directed links a ``source -> destination`` transfer crosses."""
        if self._racks > 1:
            src_rack = int(source) % self._racks
            dst_rack = int(destination) % self._racks
            if src_rack != dst_rack:
                return (
                    ("up", source),
                    ("tor-up", src_rack),
                    ("tor-down", dst_rack),
                    ("down", destination),
                )
        # Same rack: the ToR switches locally; only access links count.
        return (("up", source), ("down", destination))

    def fabric_capacity(self, link: LinkKey) -> float:
        """Capacity (bytes/s) of a fabric-tier link; KeyError otherwise."""
        if link[0] in FABRIC_TIERS:
            return self._tor
        raise KeyError(f"not a fabric link: {link!r}")

    def fabric_links(self) -> Tuple[LinkKey, ...]:
        """Every trunk, in (tier, rack) order; none with one rack."""
        if self._racks == 1:
            return ()
        return tuple(
            (tier, rack) for tier in FABRIC_TIERS for rack in range(self._racks)
        )

    def has_link(self, link: LinkKey) -> bool:
        """Whether ``link`` exists here: a known host's access link or a
        trunk of :meth:`fabric_links`."""
        tier, ident = link
        if tier in HOST_TIERS:
            return isinstance(ident, int) and 0 <= ident < self._hosts
        return link in self.fabric_links()

    def link_width(self, link: LinkKey) -> int:
        """Parallel members behind the link: host access links are single
        cables, fabric trunks bundle :data:`TRUNK_WIDTH`."""
        return TRUNK_WIDTH if link[0] in FABRIC_TIERS else 1

    def __repr__(self) -> str:
        return (
            f"ClosTopology(hosts={self._hosts}, racks={self._racks}, "
            f"oversubscription={self._oversub})"
        )


# -- link specs (chaos vocabulary) ---------------------------------------------


def parse_link_spec(
    spec: str, intern: Optional[Callable[[str], NodeId]] = None
) -> LinkKey:
    """Parse a ``"tier:id"`` link spec into a :data:`LinkKey`.

    Fabric tiers take an integer rack index. Host tiers take a host name
    or a numeric node id. With ``intern`` (the cluster's
    :class:`~repro.core.ids.NodeIds` lookup) a known host name wins, so
    hosts named by number (trace replays) resolve to their own links, and
    an all-digit ident is a node id only if no host has that name.
    Without ``intern`` names are kept verbatim (standalone components
    route by name).
    """
    tier, sep, ident = spec.partition(":")
    if not sep or not ident:
        raise ValueError(f"link spec must look like 'tier:id', got {spec!r}")
    if tier in FABRIC_TIERS:
        try:
            return (tier, int(ident))
        except ValueError:
            raise ValueError(
                f"fabric link spec needs an integer index, got {spec!r}"
            ) from None
    if tier in HOST_TIERS:
        if intern is not None:
            try:
                return (tier, intern(ident))
            except KeyError:
                if not ident.isdigit():
                    raise
        return (tier, int(ident)) if ident.isdigit() else (tier, ident)
    raise ValueError(
        f"unknown link tier {tier!r}; expected one of "
        f"{HOST_TIERS + FABRIC_TIERS}"
    )
