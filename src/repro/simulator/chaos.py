"""Chaos campaign engine: arms scripted fault scenarios, measures recovery.

The :class:`ChaosEngine` is a registered
:class:`~repro.runtime.services.Service` that layers the declarative
scenarios of :mod:`repro.simulator.scenarios` on top of the stochastic
:class:`~repro.simulator.failures.FailureInjector`. Every injection goes
through the published machinery the cluster already reacts to — outages
via :meth:`~repro.simulator.failures.FailureInjector.schedule_outage`,
partitions and gray nodes via bus events — so the
:class:`~repro.simulator.invariants.InvariantAuditor` keeps running in
strict mode throughout a campaign, and the
:class:`~repro.simulator.trace.TraceRecorder` (a bus tap) records every
chaos action for byte-exact replay.

Scenario primitives map to injections as follows:

=================  ==========================================================
Primitive          Injection path
=================  ==========================================================
storm              ``FailureInjector.schedule_outage`` per target (staggered)
flap               one ``schedule_outage`` per cycle per target
partition          ``PartitionStarted`` / ``PartitionHealed`` bus events
                   (Network stalls crossing flows; HeartbeatService
                   suppresses member beats when ``isolate_heartbeats``)
gray               ``NodeDegraded`` / ``NodeRestored`` bus events (Network
                   throttles links; TaskTracker stretches execution)
degraded-link      ``LinkDegraded`` / ``LinkRestored`` bus events (the
                   ``LinkMitigationService`` applies its strategy's verdict
                   as capacity scales on the Network)
delayed-recovery   ``FailureInjector.set_recovery_stretch`` over the window
=================  ==========================================================

Alongside injection the engine *measures*: it subscribes (ACCOUNTING
phase, so it observes raw transitions before any reaction) to the
physical and belief events and produces a :class:`ResilienceReport` —
time-to-detect, time-to-re-replicate, makespan inflation against a
fault-free baseline, and SLO attainment.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.ids import NodeId, NodeIds
from repro.hdfs.namenode import NameNode
from repro.simulator.engine import EventHandle, Simulator
from repro.simulator.events import (
    ChaosScenarioEnded,
    ChaosScenarioStarted,
    EventBus,
    LinkDegraded,
    LinkRestored,
    NodeDeclaredDead,
    NodeDegraded,
    NodeDown,
    NodeRestored,
    NodeReturned,
    NodeUp,
    PartitionHealed,
    PartitionStarted,
    ReplicaAdded,
)
from repro.simulator.failures import FailureInjector
from repro.simulator.network import Network
from repro.simulator.scenarios import (
    ChaosCampaign,
    DegradedLink,
    DelayedRecovery,
    FailureStorm,
    FlappingNode,
    GrayNode,
    NetworkPartition,
    Scenario,
)
from repro.simulator.topology import FlatStar, HOST_TIERS, LinkKey, Topology
from repro.util.rng import RandomSource

__all__ = ["ChaosEngine", "ResilienceReport", "ScenarioActivation"]


@dataclass(frozen=True)
class ScenarioActivation:
    """One armed scenario: its kind, campaign index, and resolved targets."""

    kind: str
    index: int
    targets: Tuple[str, ...]

    def to_jsonable(self) -> Dict[str, object]:
        return {"kind": self.kind, "index": self.index, "targets": list(self.targets)}


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


@dataclass(frozen=True)
class ResilienceReport:
    """What a campaign did to the cluster, and how fast it healed.

    Lag metrics are zero when the corresponding transition never
    happened (e.g. no detections under sub-timeout flapping). The
    baseline comparison fields stay ``None`` until
    :meth:`with_baseline` folds in a fault-free run's makespan.
    """

    campaign: str
    slo_factor: float
    activations: Tuple[ScenarioActivation, ...]
    makespan: float
    #: Physical NodeDown transitions observed during the run.
    interruptions: int
    #: Physical NodeUp transitions observed during the run.
    node_returns: int
    #: NodeDeclaredDead events matched to a preceding physical down.
    detections: int
    mean_time_to_detect: float
    max_time_to_detect: float
    #: Interruptions never detected before the run ended (e.g. the node
    #: returned inside the heartbeat timeout — flapping's signature).
    undetected_downs: int
    #: Blocks re-replicated after their holder was declared dead.
    rereplications: int
    mean_time_to_rereplicate: float
    max_time_to_rereplicate: float
    #: Blocks still awaiting a new replica when the run ended.
    unrecovered_blocks: int
    baseline_makespan: Optional[float] = None
    makespan_inflation: Optional[float] = None
    slo_attained: Optional[bool] = None

    def with_baseline(self, baseline_makespan: float) -> "ResilienceReport":
        """Fold in a fault-free run: inflation and SLO attainment."""
        if baseline_makespan <= 0:
            raise ValueError(
                f"baseline makespan must be positive, got {baseline_makespan}"
            )
        inflation = self.makespan / baseline_makespan
        return dataclasses.replace(
            self,
            baseline_makespan=baseline_makespan,
            makespan_inflation=inflation,
            slo_attained=inflation <= self.slo_factor,
        )

    def to_jsonable(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "campaign": self.campaign,
            "slo_factor": self.slo_factor,
            "activations": [a.to_jsonable() for a in self.activations],
            "makespan": self.makespan,
            "interruptions": self.interruptions,
            "node_returns": self.node_returns,
            "detections": self.detections,
            "mean_time_to_detect": self.mean_time_to_detect,
            "max_time_to_detect": self.max_time_to_detect,
            "undetected_downs": self.undetected_downs,
            "rereplications": self.rereplications,
            "mean_time_to_rereplicate": self.mean_time_to_rereplicate,
            "max_time_to_rereplicate": self.max_time_to_rereplicate,
            "unrecovered_blocks": self.unrecovered_blocks,
            "baseline_makespan": self.baseline_makespan,
            "makespan_inflation": self.makespan_inflation,
            "slo_attained": self.slo_attained,
        }
        return data

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable(), indent=2, sort_keys=True)


class ChaosEngine:
    """Arms a campaign's scenarios and measures the cluster's recovery."""

    def __init__(
        self,
        sim: Simulator,
        bus: EventBus,
        campaign: ChaosCampaign,
        rng: RandomSource,
        injector: FailureInjector,
        namenode: Optional[NameNode] = None,
        ids: Optional[NodeIds] = None,
        network: Optional[Network] = None,
    ) -> None:
        self._sim = sim
        self._bus = bus
        self._campaign = campaign
        self._rng = rng
        self._injector = injector
        self._namenode = namenode
        #: Degraded-link scenarios resolve their targets against this
        #: network's topology; without one they fall back to a flat star
        #: (explicit link specs only).
        self._network = network
        #: Name <-> int identity table. When present, scenario specs name
        #: targets by host name, the engine arms them by int id, and the
        #: resilience report translates back — names at both human edges,
        #: ints everywhere the cluster routes.
        self._ids = ids
        self._handles: List[EventHandle] = []
        self._activations: List[ScenarioActivation] = []
        self._armed = False
        # -- measurement state (fed by ACCOUNTING-phase subscriptions) ----
        self._interruptions = 0
        self._node_returns = 0
        self._pending_detect: Dict[NodeId, float] = {}
        self._detect_lags: List[float] = []
        self._pending_rerepl: Dict[NodeId, float] = {}
        self._rerepl_lags: List[float] = []

    # -- service lifecycle --------------------------------------------------

    def start(self) -> None:
        """Resolve every scenario's targets and arm its window events.

        Target selection draws from a per-scenario keyed substream over
        the sorted node-id list, so it is a pure function of the campaign
        and the cluster seed. Idempotent: a second start is a no-op.
        """
        if self._armed:
            return
        self._armed = True
        node_ids = self._injector.node_ids
        intern = self._ids.id_of if self._ids is not None else None
        for index, scenario in enumerate(self._campaign.scenarios):
            rng = self._rng.substream("chaos", index)
            if isinstance(scenario, DegradedLink):
                links = scenario.resolve_links(
                    self._topology(), rng, intern=intern
                )
                display = tuple(self._display_link(link) for link in links)
                self._activations.append(
                    ScenarioActivation(
                        kind=scenario.kind, index=index, targets=display
                    )
                )
                self._arm_degraded_links(index, scenario, display)
                continue
            targets = scenario.resolve_targets(node_ids, rng, intern=intern)
            display = (
                targets
                if self._ids is None
                else tuple(self._ids.name_of(n) for n in targets)
            )
            self._activations.append(
                ScenarioActivation(kind=scenario.kind, index=index, targets=display)
            )
            self._arm(index, scenario, targets, display)

    def stop(self) -> None:
        """Disarm every pending scenario event (cluster teardown)."""
        for handle in self._handles:
            handle.cancel()
        self._handles.clear()

    # -- arming -------------------------------------------------------------

    def _schedule(self, at_time: float, action: Callable[[], None]) -> None:
        self._handles.append(
            self._sim.schedule_at(
                max(at_time, self._sim.now), action, label="chaos"
            )
        )

    def _topology(self) -> Topology:
        if self._network is not None:
            return self._network.topology
        return FlatStar()

    def _display_link(self, link: LinkKey) -> str:
        """Render a link key in the campaign's (human) vocabulary."""
        tier, ident = link
        if tier in HOST_TIERS and self._ids is not None and isinstance(ident, int):
            return f"{tier}:{self._ids.name_of(ident)}"
        return f"{tier}:{ident}"

    def _arm_degraded_links(
        self, index: int, scenario: DegradedLink, links: Tuple[str, ...]
    ) -> None:
        """Arm one degraded-link window: per-link degrade/restore events.

        The events carry link specs in the display vocabulary (the same
        one :class:`ChaosScenarioStarted` speaks); the mitigation service
        parses them back through the cluster's id table.
        """
        start = max(scenario.start, self._sim.now)
        end = max(scenario.end(), start)
        spec = scenario.spec_json()
        kind = scenario.kind
        capacity_factor = scenario.capacity_factor
        corruption_rate = scenario.corruption_rate
        self._schedule(
            start,
            lambda: self._bus.publish(
                ChaosScenarioStarted(
                    time=self._sim.now,
                    kind=kind,
                    index=index,
                    targets=links,
                    spec=spec,
                )
            ),
        )
        for link in links:
            self._schedule(
                start,
                lambda spec_str=link: self._bus.publish(
                    LinkDegraded(
                        time=self._sim.now,
                        link=spec_str,
                        capacity_factor=capacity_factor,
                        corruption_rate=corruption_rate,
                    )
                ),
            )
            self._schedule(
                end,
                lambda spec_str=link: self._bus.publish(
                    LinkRestored(
                        time=self._sim.now,
                        link=spec_str,
                        capacity_factor=capacity_factor,
                        corruption_rate=corruption_rate,
                    )
                ),
            )
        self._schedule(
            end,
            lambda: self._bus.publish(
                ChaosScenarioEnded(time=self._sim.now, kind=kind, index=index)
            ),
        )

    def _arm(
        self,
        index: int,
        scenario: Scenario,
        targets: Tuple[NodeId, ...],
        display: Tuple[str, ...],
    ) -> None:
        start = max(scenario.start, self._sim.now)
        end = max(scenario.end(), start)
        spec = scenario.spec_json()
        kind = scenario.kind
        self._schedule(
            start,
            lambda: self._bus.publish(
                ChaosScenarioStarted(
                    time=self._sim.now,
                    kind=kind,
                    index=index,
                    targets=display,
                    spec=spec,
                )
            ),
        )
        if isinstance(scenario, FailureStorm):
            for offset, node_id in enumerate(targets):
                self._injector.schedule_outage(
                    [node_id],
                    start + offset * scenario.stagger,
                    scenario.duration,
                )
        elif isinstance(scenario, FlappingNode):
            period = scenario.down_time + scenario.up_time
            for node_id in targets:
                for cycle in range(int(scenario.cycles)):
                    self._injector.schedule_outage(
                        [node_id], start + cycle * period, scenario.down_time
                    )
        elif isinstance(scenario, NetworkPartition):
            partition_id = f"chaos-{index}"
            blocked = scenario.isolate_heartbeats
            self._schedule(
                start,
                lambda: self._bus.publish(
                    PartitionStarted(
                        time=self._sim.now,
                        partition_id=partition_id,
                        members=targets,
                        heartbeats_blocked=blocked,
                    )
                ),
            )
            self._schedule(
                end,
                lambda: self._bus.publish(
                    PartitionHealed(
                        time=self._sim.now,
                        partition_id=partition_id,
                        members=targets,
                    )
                ),
            )
        elif isinstance(scenario, GrayNode):
            link_factor = scenario.link_factor
            exec_factor = scenario.exec_factor
            for node_id in targets:
                self._schedule(
                    start,
                    lambda n=node_id: self._bus.publish(
                        NodeDegraded(
                            time=self._sim.now,
                            node_id=n,
                            link_factor=link_factor,
                            exec_factor=exec_factor,
                        )
                    ),
                )
                self._schedule(
                    end,
                    lambda n=node_id: self._bus.publish(
                        NodeRestored(time=self._sim.now, node_id=n)
                    ),
                )
        elif isinstance(scenario, DelayedRecovery):
            stretch = scenario.stretch
            for node_id in targets:
                self._schedule(
                    start,
                    lambda n=node_id: self._injector.set_recovery_stretch(n, stretch),
                )
                self._schedule(
                    end,
                    lambda n=node_id: self._injector.clear_recovery_stretch(n),
                )
        else:  # pragma: no cover - scenarios module defines the closed set
            raise TypeError(f"unsupported scenario type: {type(scenario).__name__}")
        self._schedule(
            end,
            lambda: self._bus.publish(
                ChaosScenarioEnded(time=self._sim.now, kind=kind, index=index)
            ),
        )

    # -- measurement (bus handlers, ACCOUNTING phase) -------------------------

    def handle_node_down(self, event: NodeDown) -> None:
        """Open a detection interval for the interrupted node."""
        self._interruptions += 1
        self._pending_detect.setdefault(event.node_id, event.time)

    def handle_node_up(self, event: NodeUp) -> None:
        """The node returned before detection fired: close the interval
        unmatched (flapping invisible to the collector)."""
        self._node_returns += 1
        self._pending_detect.pop(event.node_id, None)

    def handle_declared_dead(self, event: NodeDeclaredDead) -> None:
        """Close the detection interval; open re-replication intervals for
        every block the dead node held."""
        down_at = self._pending_detect.pop(event.node_id, None)
        if down_at is not None:
            self._detect_lags.append(event.time - down_at)
        if self._namenode is not None:
            for block_id in self._namenode.located_on(event.node_id):
                self._pending_rerepl.setdefault(block_id, event.time)

    def handle_node_returned(self, event: NodeReturned) -> None:
        """A believed-dead holder came back: void the pending intervals of
        blocks its return made whole again (another holder may still be
        dead — those intervals stay open)."""
        if self._namenode is None:
            return
        for block_id in self._namenode.located_on(event.node_id):
            if block_id not in self._pending_rerepl:
                continue
            target = self._namenode.replication_target(block_id)
            if len(self._namenode.up_holders(block_id)) >= target:
                del self._pending_rerepl[block_id]

    def handle_replica_added(self, event: ReplicaAdded) -> None:
        """A re-replication landed: close the block's interval."""
        started = self._pending_rerepl.pop(event.block_id, None)
        if started is not None:
            self._rerepl_lags.append(event.time - started)

    # -- reporting ------------------------------------------------------------

    @property
    def campaign(self) -> ChaosCampaign:
        return self._campaign

    @property
    def activations(self) -> Tuple[ScenarioActivation, ...]:
        return tuple(self._activations)

    def report(self, makespan: float) -> ResilienceReport:
        """Snapshot the campaign's resilience metrics at ``makespan``."""
        return ResilienceReport(
            campaign=self._campaign.name,
            slo_factor=self._campaign.slo_factor,
            activations=tuple(self._activations),
            makespan=makespan,
            interruptions=self._interruptions,
            node_returns=self._node_returns,
            detections=len(self._detect_lags),
            mean_time_to_detect=_mean(self._detect_lags),
            max_time_to_detect=max(self._detect_lags, default=0.0),
            undetected_downs=len(self._pending_detect),
            rereplications=len(self._rerepl_lags),
            mean_time_to_rereplicate=_mean(self._rerepl_lags),
            max_time_to_rereplicate=max(self._rerepl_lags, default=0.0),
            unrecovered_blocks=len(self._pending_rerepl),
        )
