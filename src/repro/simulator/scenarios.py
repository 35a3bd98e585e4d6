"""Declarative chaos scenarios and campaign definitions.

The stochastic :class:`~repro.simulator.failures.FailureInjector` draws
independent per-node interruptions from fitted availability
distributions — the memoryless regime ADAPT evaluates against. Real
non-dedicated deployments also fail in *correlated, scripted* shapes:
a rack loses power (storm), a flaky NIC cycles a node (flap), a switch
wedges so storage traffic stalls while control traffic survives
(partition), a node limps along at a fraction of nominal speed (gray),
or an operator takes far longer to bring machines back than the fitted
recovery distribution promises (delayed recovery).

This module defines those shapes as frozen dataclasses, composable into
a :class:`ChaosCampaign` that is JSON round-trippable (CLI loadable),
seed-deterministic (target selection uses a keyed
:class:`~repro.util.rng.RandomSource` substream over *sorted* node ids),
and trace-recordable (each scenario serialises to canonical JSON carried
on :class:`~repro.simulator.events.ChaosScenarioStarted`). The engine
that arms them lives in :mod:`repro.simulator.chaos`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Callable, ClassVar, Dict, Mapping, Optional, Sequence, Tuple, Type

from repro.core.ids import NodeId
from repro.simulator.topology import ClosTopology, LinkKey, parse_link_spec
from repro.util.rng import RandomSource
from repro.util.validation import check_non_negative, check_positive

__all__ = [
    "Scenario",
    "FailureStorm",
    "FlappingNode",
    "NetworkPartition",
    "GrayNode",
    "DegradedLink",
    "DelayedRecovery",
    "ChaosCampaign",
    "scenario_from_jsonable",
]


@dataclass(frozen=True)
class Scenario:
    """Base declarative scenario: a fault shape applied over a window.

    Targets are either ``nodes`` (explicit ids, used verbatim) or
    ``count`` nodes sampled deterministically from the cluster; with
    neither set, the scenario targets every node. Subclasses set
    :attr:`kind` and define their own window shape via :meth:`end`.
    """

    #: Simulation time the scenario activates.
    start: float

    kind: ClassVar[str] = "scenario"

    def __post_init__(self) -> None:
        check_non_negative("start", self.start)

    # -- window ------------------------------------------------------------

    def end(self) -> float:
        """Simulation time the scenario's window closes."""
        raise NotImplementedError

    # -- target selection --------------------------------------------------

    def resolve_targets(
        self,
        node_ids: Sequence[NodeId],
        rng: RandomSource,
        intern: Optional[Callable[[str], NodeId]] = None,
    ) -> Tuple[NodeId, ...]:
        """Pick the concrete node ids this scenario acts on.

        Explicit ``nodes`` name hosts in the spec's (human) vocabulary;
        when ``intern`` is given they are translated to the cluster's
        dense int ids, otherwise used verbatim (standalone components
        route by name). Without explicit nodes, ``count`` ids are sampled
        from the *sorted* id list via ``rng`` so the choice is a pure
        function of the campaign seed — and representation-invariant,
        because names are zero-padded so id order equals name order.
        ``count=0`` (the default) means every node.
        """
        explicit: Tuple[NodeId, ...] = getattr(self, "nodes", ())
        if explicit and intern is not None:
            resolved = []
            unknown = []
            for name in explicit:
                try:
                    resolved.append(intern(name))
                except KeyError:
                    unknown.append(name)
            if unknown:
                raise ValueError(
                    f"{self.kind} scenario targets unknown nodes: {unknown}"
                )
            explicit = tuple(resolved)
        known = frozenset(node_ids)
        if explicit:
            missing = [n for n in explicit if n not in known]
            if missing:
                raise ValueError(
                    f"{self.kind} scenario targets unknown nodes: {missing}"
                )
            return tuple(explicit)
        pool = sorted(node_ids)
        count = int(getattr(self, "count", 0))
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if count == 0 or count >= len(pool):
            return tuple(pool)
        return tuple(rng.sample(pool, count))

    # -- serialisation -----------------------------------------------------

    def to_jsonable(self) -> Dict[str, object]:
        """Flat dict view with the ``kind`` discriminator first."""
        data: Dict[str, object] = {"kind": self.kind}
        for f in fields(self):
            value = getattr(self, f.name)
            data[f.name] = list(value) if isinstance(value, tuple) else value
        return data

    def spec_json(self) -> str:
        """Canonical JSON (sorted keys, no spaces) for trace payloads."""
        return json.dumps(self.to_jsonable(), sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class FailureStorm(Scenario):
    """Correlated mass outage: every target goes down at ``start`` (plus
    a small deterministic stagger) and stays down for ``duration``."""

    duration: float
    #: Per-target activation stagger so the storm is a burst, not one tick.
    stagger: float = 0.0
    nodes: Tuple[str, ...] = ()
    count: int = 0

    kind: ClassVar[str] = "storm"

    def __post_init__(self) -> None:
        super().__post_init__()
        check_positive("duration", self.duration)
        check_non_negative("stagger", self.stagger)
        object.__setattr__(self, "nodes", tuple(self.nodes))

    def end(self) -> float:
        return self.start + self.duration + self.stagger


@dataclass(frozen=True)
class FlappingNode(Scenario):
    """Rapid up/down cycling: each target repeats ``cycles`` episodes of
    ``down_time`` down then ``up_time`` up, starting at ``start``."""

    cycles: int
    down_time: float
    up_time: float
    nodes: Tuple[str, ...] = ()
    count: int = 0

    kind: ClassVar[str] = "flap"

    def __post_init__(self) -> None:
        super().__post_init__()
        if int(self.cycles) < 1:
            raise ValueError(f"cycles must be >= 1, got {self.cycles}")
        check_positive("down_time", self.down_time)
        check_positive("up_time", self.up_time)
        object.__setattr__(self, "nodes", tuple(self.nodes))

    def end(self) -> float:
        return self.start + self.cycles * (self.down_time + self.up_time)


@dataclass(frozen=True)
class NetworkPartition(Scenario):
    """A node subset cut off from the rest: transfers crossing the
    boundary stall for ``duration`` while the nodes keep running. With
    ``isolate_heartbeats`` the members' heartbeats are lost too, so
    detection declares them dead even though storage and compute on the
    far side are intact — belief and ground truth diverge."""

    duration: float
    isolate_heartbeats: bool = False
    nodes: Tuple[str, ...] = ()
    count: int = 0

    kind: ClassVar[str] = "partition"

    def __post_init__(self) -> None:
        super().__post_init__()
        check_positive("duration", self.duration)
        object.__setattr__(self, "nodes", tuple(self.nodes))

    def end(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True)
class GrayNode(Scenario):
    """A gray (degraded-but-alive) node: for ``duration`` its network
    links run at ``link_factor`` of nominal capacity and task execution
    takes ``exec_factor`` times as long — the straggler regime
    speculative execution exists to catch."""

    duration: float
    link_factor: float = 1.0
    exec_factor: float = 1.0
    nodes: Tuple[str, ...] = ()
    count: int = 0

    kind: ClassVar[str] = "gray"

    def __post_init__(self) -> None:
        super().__post_init__()
        check_positive("duration", self.duration)
        check_positive("link_factor", self.link_factor)
        if self.link_factor > 1.0:
            raise ValueError(
                f"link_factor must be <= 1 (a throttle), got {self.link_factor}"
            )
        if self.exec_factor < 1.0:
            raise ValueError(
                f"exec_factor must be >= 1 (a slowdown), got {self.exec_factor}"
            )
        object.__setattr__(self, "nodes", tuple(self.nodes))

    def end(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True)
class DegradedLink(Scenario):
    """A *link* limps while both its endpoints stay healthy: for
    ``duration`` the targeted links carry traffic at ``capacity_factor``
    of nominal and corrupt ``corruption_rate`` of what they forward —
    the LinkGuardian failure mode, where a flapping optic degrades a
    trunk member without any node ever missing a heartbeat.

    Targets are *links*, not nodes: either explicit ``links`` specs
    (``"tor-up:3"``, ``"up:node-00042"``) or ``count`` links sampled
    deterministically from the topology's fabric links. How much of the
    degradation reaches transfers depends on the cluster's link
    mitigation service (do-nothing, disable-reroute, retransmit-tax).
    """

    duration: float
    links: Tuple[str, ...] = ()
    count: int = 0
    capacity_factor: float = 1.0
    corruption_rate: float = 0.0

    kind: ClassVar[str] = "degraded-link"

    def __post_init__(self) -> None:
        super().__post_init__()
        check_positive("duration", self.duration)
        check_positive("capacity_factor", self.capacity_factor)
        if self.capacity_factor > 1.0:
            raise ValueError(
                f"capacity_factor must be <= 1 (a degradation), got "
                f"{self.capacity_factor}"
            )
        check_non_negative("corruption_rate", self.corruption_rate)
        if self.corruption_rate >= 1.0:
            raise ValueError(
                f"corruption_rate must be < 1, got {self.corruption_rate}"
            )
        if self.capacity_factor == 1.0 and self.corruption_rate == 0.0:
            raise ValueError(
                "degraded-link must degrade something: set capacity_factor < 1 "
                "and/or corruption_rate > 0"
            )
        object.__setattr__(self, "links", tuple(self.links))

    def end(self) -> float:
        return self.start + self.duration

    def resolve_links(
        self,
        topology: ClosTopology,
        rng: RandomSource,
        intern: Optional[Callable[[str], NodeId]] = None,
    ) -> Tuple[LinkKey, ...]:
        """Pick the concrete links this scenario degrades.

        Explicit ``links`` specs are parsed verbatim (host names interned
        through ``intern`` when given), and each must name a link of
        ``topology``: a known host's access link or a fabric trunk;
        anything else raises ValueError naming the spec. Without explicit
        links, ``count`` links are sampled from the topology's fabric
        links — already in deterministic (tier, index) order — via
        ``rng``; ``count=0`` means every fabric link. A one-rack (flat)
        fabric has no trunks, so there the spec must name links explicitly.
        """
        if self.links:
            links = []
            for spec in self.links:
                link = parse_link_spec(spec, intern=intern)
                if not topology.has_link(link):
                    raise ValueError(
                        f"degraded-link spec {spec!r} names no link of the "
                        f"{topology.racks}-rack fabric"
                    )
                links.append(link)
            return tuple(links)
        pool = list(topology.fabric_links())
        if not pool:
            raise ValueError(
                "degraded-link scenario has no links: the topology has no "
                "fabric links to sample, so name targets explicitly via 'links'"
            )
        count = int(self.count)
        if count == 0 or count >= len(pool):
            return tuple(pool)
        return tuple(rng.sample(pool, count))


@dataclass(frozen=True)
class DelayedRecovery(Scenario):
    """Return times stretched past the predictor's fitted distribution:
    any interruption of a target beginning inside the window lasts
    ``stretch`` times its sampled duration."""

    duration: float
    stretch: float
    nodes: Tuple[str, ...] = ()
    count: int = 0

    kind: ClassVar[str] = "delayed-recovery"

    def __post_init__(self) -> None:
        super().__post_init__()
        check_positive("duration", self.duration)
        if self.stretch < 1.0:
            raise ValueError(f"stretch must be >= 1, got {self.stretch}")
        object.__setattr__(self, "nodes", tuple(self.nodes))

    def end(self) -> float:
        return self.start + self.duration


_SCENARIO_TYPES: Tuple[Type[Scenario], ...] = (
    FailureStorm,
    FlappingNode,
    NetworkPartition,
    GrayNode,
    DegradedLink,
    DelayedRecovery,
)
_BY_KIND: Dict[str, Type[Scenario]] = {cls.kind: cls for cls in _SCENARIO_TYPES}


def scenario_from_jsonable(data: Mapping[str, object]) -> Scenario:
    """Rebuild a scenario from its :meth:`Scenario.to_jsonable` form."""
    payload = dict(data)
    kind = payload.pop("kind", None)
    if not isinstance(kind, str) or kind not in _BY_KIND:
        raise ValueError(
            f"unknown scenario kind {kind!r}; expected one of {sorted(_BY_KIND)}"
        )
    cls = _BY_KIND[kind]
    names = {f.name for f in fields(cls)}
    unknown = sorted(k for k in payload if k not in names)
    if unknown:
        raise ValueError(f"{kind} scenario has unknown fields: {unknown}")
    if "nodes" in payload:
        nodes = payload["nodes"]
        if not isinstance(nodes, (list, tuple)):
            raise ValueError(f"{kind} scenario 'nodes' must be a list")
        payload["nodes"] = tuple(str(n) for n in nodes)
    if "links" in payload:
        links = payload["links"]
        if not isinstance(links, (list, tuple)):
            raise ValueError(f"{kind} scenario 'links' must be a list")
        payload["links"] = tuple(str(link) for link in links)
    return cls(**payload)  # type: ignore[arg-type]


@dataclass(frozen=True)
class ChaosCampaign:
    """An ordered composition of scenarios run against one cluster.

    ``slo_factor`` defines the campaign's service-level objective: the
    run attains its SLO when makespan stays within ``slo_factor`` times
    the fault-free baseline (measured by
    :meth:`~repro.simulator.chaos.ResilienceReport.with_baseline`).
    """

    name: str
    scenarios: Tuple[Scenario, ...]
    slo_factor: float = 2.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("campaign name must be non-empty")
        object.__setattr__(self, "scenarios", tuple(self.scenarios))
        if not self.scenarios:
            raise ValueError("campaign must contain at least one scenario")
        for scenario in self.scenarios:
            if not isinstance(scenario, Scenario):
                raise TypeError(f"not a Scenario: {scenario!r}")
        check_positive("slo_factor", self.slo_factor)

    # -- serialisation -----------------------------------------------------

    def to_jsonable(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "slo_factor": self.slo_factor,
            "scenarios": [s.to_jsonable() for s in self.scenarios],
        }

    @classmethod
    def from_jsonable(cls, data: Mapping[str, object]) -> "ChaosCampaign":
        if not isinstance(data, Mapping):
            raise ValueError(f"campaign must be a JSON object, got {type(data)}")
        raw = data.get("scenarios")
        if not isinstance(raw, list):
            raise ValueError("campaign 'scenarios' must be a list")
        scenarios = tuple(scenario_from_jsonable(item) for item in raw)
        return cls(
            name=str(data.get("name", "")),
            scenarios=scenarios,
            slo_factor=float(data.get("slo_factor", 2.0)),  # type: ignore[arg-type]
        )

    @classmethod
    def load(cls, path: str) -> "ChaosCampaign":
        """Load a campaign from a JSON file (the CLI's ``--campaign``)."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_jsonable(json.load(handle))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_jsonable(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    def horizon(self) -> float:
        """Latest scenario end time (campaign observation window)."""
        return max(s.end() for s in self.scenarios)
