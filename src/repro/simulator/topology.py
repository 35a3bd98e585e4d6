"""Network topologies: the link structure under the flow-level model.

The paper's network (Section I, V.C) is a flat star — every host hangs
off an infinitely-fast core through one shaped access link, so a
transfer touches exactly two directed links: the source's uplink and the
destination's downlink. That is :class:`FlatStar`, and it remains the
default (golden trajectories are byte-identical through it).

:class:`ClosTopology` generalises to the datacenter shape the HDFS
off-rack replica rule presumes: hosts hang off a top-of-rack (ToR)
switch, racks off an aggregation tier, pods off a spine. A transfer's
*path* becomes a sequence of directed link keys, and the max-min
progressive-filling allocator in :mod:`repro.simulator.network` runs
over every link on the path — the per-link live-member counters
generalise with no change to the round structure. Fabric tiers carry an
*oversubscription* ratio: a ToR uplink trunk provides ``1/ratio`` of the
aggregate access bandwidth beneath it, so cross-rack shuffle contends
where a flat star never could.

Link keys
---------
A link is a ``(tier, id)`` tuple, directed by construction:

===========  ============================  =================================
tier         id                            meaning
===========  ============================  =================================
``up``       host :data:`NodeId`           host access link, host -> ToR
``down``     host :data:`NodeId`           host access link, ToR -> host
``tor-up``   rack index (int)              ToR trunk towards aggregation
``tor-down`` rack index (int)              aggregation trunk towards the ToR
``agg-up``   pod index (int)               pod trunk towards the spine
``agg-down`` pod index (int)               spine trunk towards the pod
===========  ============================  =================================

Host tiers carry the :class:`~.network.Network`'s one host link rate;
fabric tiers take theirs from the topology (so oversubscription is a pure
function of the declared shape). On every tier the Network multiplies the
nominal capacity by the link's scale stack (gray windows, mitigation).
Chaos specs name links as ``"tier:id"`` strings — ``"tor-up:3"``,
``"up:node-00042"`` — parsed by :func:`parse_link_spec`.
"""

from __future__ import annotations

from typing import Callable, Optional, Protocol, Tuple, Union

from repro.core.ids import NodeId
from repro.util.validation import check_positive

__all__ = [
    "LinkKey",
    "Topology",
    "FlatStar",
    "ClosTopology",
    "FABRIC_TIERS",
    "HOST_TIERS",
    "parse_link_spec",
    "format_link_spec",
    "make_topology",
    "TOPOLOGIES",
]

#: One directed link: ``(tier, id)``. Host tiers carry a node id, fabric
#: tiers an int rack/pod index.
LinkKey = Tuple[str, Union[NodeId, str, int]]

#: Tiers whose nominal capacity is the Network's host link rate.
HOST_TIERS = ("up", "down")
#: Tiers whose capacity the topology owns (oversubscribed trunks).
FABRIC_TIERS = ("tor-up", "tor-down", "agg-up", "agg-down")

#: Valid ``topology=`` spellings, used by ClusterConfig validation.
TOPOLOGIES = ("flat", "clos")


class Topology(Protocol):
    """The link structure transfers traverse.

    Implementations must be pure and stateless after construction:
    ``path`` is called once per transfer and its result is interned on
    the :class:`~.network.Transfer`, so it must be a deterministic
    function of the endpoints.
    """

    def path(self, source: NodeId, destination: NodeId) -> Tuple[LinkKey, ...]:
        """Directed links a ``source -> destination`` transfer crosses."""
        ...

    def fabric_capacity(self, link: LinkKey) -> float:
        """Capacity (bytes/s) of a fabric-tier link; KeyError otherwise."""
        ...

    def fabric_links(self) -> Tuple[LinkKey, ...]:
        """Every fabric link, in deterministic (tier, index) order."""
        ...

    def link_width(self, link: LinkKey) -> int:
        """Parallel trunk members behind the link (ECMP width).

        Host access links are single cables (width 1); fabric trunks
        bundle several, which is what makes disable-and-reroute
        mitigation possible: losing one member leaves ``(w-1)/w`` of the
        trunk.
        """
        ...

    def rack_of(self, node_id: NodeId) -> int:
        """The rack index a host lives in (0 for rackless topologies)."""
        ...


class FlatStar:
    """The paper's model: every pair of hosts two access links apart."""

    kind = "flat"

    def path(self, source: NodeId, destination: NodeId) -> Tuple[LinkKey, ...]:
        return (("up", source), ("down", destination))

    def fabric_capacity(self, link: LinkKey) -> float:
        raise KeyError(f"flat star has no fabric link {link!r}")

    def fabric_links(self) -> Tuple[LinkKey, ...]:
        return ()

    def link_width(self, link: LinkKey) -> int:
        return 1

    def rack_of(self, node_id: NodeId) -> int:
        return 0

    def __repr__(self) -> str:
        return "FlatStar()"


class ClosTopology:
    """Hosts -> ToR -> aggregation -> spine, with oversubscribed trunks.

    ``racks`` partitions hosts by ``node_id % racks`` (dense ids spread
    round-robin, so every rack stays balanced whatever the cluster
    size); ``pods`` partitions racks the same way. A same-rack transfer
    crosses only the two host access links — with ``racks=1`` and
    ``oversubscription=1`` the topology is therefore *path-identical* to
    :class:`FlatStar`, which the golden byte-identity tests pin.

    Trunk capacities derive from the declared shape: a ToR serves
    ``hosts/racks`` hosts, so each of its trunks provides that many host
    links of aggregate bandwidth divided by ``oversubscription``; an
    aggregation trunk serves ``racks/pods`` ToR trunks, divided by
    ``oversubscription`` again. Both directions of a tier carry the same
    capacity. ``trunk_width`` models the ECMP member count of every
    fabric trunk (disable-and-reroute mitigation derates a degraded trunk
    to ``(w-1)/w``).
    """

    kind = "clos"

    def __init__(
        self,
        hosts: int,
        racks: int,
        host_link_bps: float,
        oversubscription: float = 1.0,
        pods: int = 1,
        trunk_width: int = 4,
    ) -> None:
        if hosts < 1:
            raise ValueError(f"hosts must be >= 1, got {hosts}")
        if racks < 1:
            raise ValueError(f"racks must be >= 1, got {racks}")
        if racks > hosts:
            raise ValueError(f"racks ({racks}) must not exceed hosts ({hosts})")
        if pods < 1:
            raise ValueError(f"pods must be >= 1, got {pods}")
        if pods > racks:
            raise ValueError(f"pods ({pods}) must not exceed racks ({racks})")
        if trunk_width < 1:
            raise ValueError(f"trunk_width must be >= 1, got {trunk_width}")
        check_positive("host_link_bps", host_link_bps)
        check_positive("oversubscription", oversubscription)
        self._hosts = int(hosts)
        self._racks = int(racks)
        self._pods = int(pods)
        self._oversub = float(oversubscription)
        self._trunk_width = int(trunk_width)
        hosts_per_rack = self._hosts / self._racks
        racks_per_pod = self._racks / self._pods
        self._tor = hosts_per_rack * float(host_link_bps) / self._oversub
        self._agg = racks_per_pod * self._tor / self._oversub

    # -- shape -------------------------------------------------------------

    @property
    def racks(self) -> int:
        return self._racks

    @property
    def pods(self) -> int:
        return self._pods

    @property
    def oversubscription(self) -> float:
        return self._oversub

    def rack_of(self, node_id: NodeId) -> int:
        return int(node_id) % self._racks

    # -- Topology protocol -------------------------------------------------

    def path(self, source: NodeId, destination: NodeId) -> Tuple[LinkKey, ...]:
        src_rack = int(source) % self._racks
        dst_rack = int(destination) % self._racks
        if src_rack == dst_rack:
            # Same rack: the ToR switches locally; only access links count.
            return (("up", source), ("down", destination))
        src_pod = src_rack % self._pods
        dst_pod = dst_rack % self._pods
        if src_pod == dst_pod:
            return (
                ("up", source),
                ("tor-up", src_rack),
                ("tor-down", dst_rack),
                ("down", destination),
            )
        return (
            ("up", source),
            ("tor-up", src_rack),
            ("agg-up", src_pod),
            ("agg-down", dst_pod),
            ("tor-down", dst_rack),
            ("down", destination),
        )

    def fabric_capacity(self, link: LinkKey) -> float:
        tier = link[0]
        if tier == "tor-up" or tier == "tor-down":
            return self._tor
        if tier == "agg-up" or tier == "agg-down":
            return self._agg
        raise KeyError(f"not a fabric link: {link!r}")

    def fabric_links(self) -> Tuple[LinkKey, ...]:
        links: list = []
        for tier in ("tor-up", "tor-down"):
            links.extend((tier, rack) for rack in range(self._racks))
        if self._pods > 1:
            for tier in ("agg-up", "agg-down"):
                links.extend((tier, pod) for pod in range(self._pods))
        return tuple(links)

    def link_width(self, link: LinkKey) -> int:
        return self._trunk_width if link[0] in FABRIC_TIERS else 1

    def __repr__(self) -> str:
        return (
            f"ClosTopology(hosts={self._hosts}, racks={self._racks}, "
            f"pods={self._pods}, oversubscription={self._oversub})"
        )


# -- link specs (chaos vocabulary) ---------------------------------------------


def format_link_spec(link: LinkKey) -> str:
    """Render a link key as the ``"tier:id"`` string chaos specs use."""
    return f"{link[0]}:{link[1]}"


def parse_link_spec(
    spec: str, intern: Optional[Callable[[str], NodeId]] = None
) -> LinkKey:
    """Parse a ``"tier:id"`` link spec into a :data:`LinkKey`.

    Fabric tiers take an integer rack/pod index. Host tiers take either
    a numeric node id or a host name; names are translated through
    ``intern`` when given (the cluster's :class:`~repro.core.ids.NodeIds`
    table) and kept verbatim otherwise (standalone components route by
    name).
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
        if ident.isdigit():
            return (tier, int(ident))
        if intern is not None:
            return (tier, intern(ident))
        return (tier, ident)
    raise ValueError(
        f"unknown link tier {tier!r}; expected one of "
        f"{HOST_TIERS + FABRIC_TIERS}"
    )


def make_topology(
    kind: str,
    hosts: int,
    link_bps: float,
    racks: int = 1,
    oversubscription: float = 1.0,
    pods: int = 1,
    trunk_width: int = 4,
) -> Topology:
    """Build the topology a ``ClusterConfig`` names (``flat`` | ``clos``)."""
    if kind == "flat":
        return FlatStar()
    if kind == "clos":
        return ClosTopology(
            hosts=hosts,
            racks=racks,
            host_link_bps=link_bps,
            oversubscription=oversubscription,
            pods=pods,
            trunk_width=trunk_width,
        )
    raise ValueError(f"unknown topology {kind!r}; expected one of {TOPOLOGIES}")
