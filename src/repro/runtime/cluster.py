"""Cluster assembly: wire every subsystem into one simulated deployment.

The wiring mirrors the paper's deployment (Figure 2): every host runs a
DataNode and a TaskTracker; a dedicated master hosts the NameNode (with
ADAPT's Performance Predictor and Data Block Distributor) and the
JobTracker. The failure injector plays the role of the non-dedicated
environment: it interrupts hosts according to their availability
descriptions, and everything else reacts.

All reactions flow through one typed
:class:`~repro.simulator.events.EventBus`. Reaction *order* on a
transition is load-bearing, and it is expressed here as dispatch phases
rather than subscription order (see ``repro.simulator.events`` and
DESIGN.md, "Event bus & dispatch phases"):

=================  ==========================================================
Phase              NodeDown / NodeUp reaction
=================  ==========================================================
ACCOUNTING         JobTracker opens/closes the downtime interval
STORAGE            nothing: the disk keeps its blocks, and the injector
                   alone holds the node's physical state
COMPUTE            TaskTracker kills the attempts that lived on the node
DETECTION          heartbeat bookkeeping, or the oracle marking belief
SCHEDULING         the returned node's TaskTracker asks for work
=================  ==========================================================

An interruption evicts guest computation only: a down host's stored
blocks stay streamable, so no flow reacts to ``NodeDown``.

Belief events (``NodeDeclaredDead`` / ``NodeReturned``) are published by
whichever detector is configured; the replication monitor reacts in
STORAGE phase (purge before requeue) and the JobTracker in SCHEDULING.
Permanent failures wipe storage in STORAGE phase
(:class:`~repro.hdfs.durability.PermanentFailurePipeline`) and tear down
flows in NETWORK phase — both before the ``NodeDown`` that follows.

Every long-lived subsystem satisfies the
:class:`~repro.runtime.services.Service` protocol (``start`` and ``stop``)
and is owned by the cluster's
:class:`~repro.runtime.services.ServiceRegistry`, so start-up is one loop
in registration order and teardown one loop in reverse.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, TypeVar

from repro.availability.estimators import AvailabilityEstimate
from repro.availability.generator import HostAvailability, count_unstable
from repro.availability.pregen import episode_prefix, host_stream
from repro.availability.process import Episode
from repro.availability.traces import AvailabilityTrace
from repro.core.ids import NodeId, NodeIds
from repro.core.predictor import PerformancePredictor
from repro.hdfs.client import DfsClient
from repro.hdfs.datanode import DataNode
from repro.hdfs.detection import OracleDetector
from repro.hdfs.durability import PermanentFailurePipeline
from repro.hdfs.heartbeat import HeartbeatService
from repro.hdfs.namenode import NameNode
from repro.hdfs.replication_monitor import ReplicationMonitor
from repro.mapreduce.jobtracker import JobTracker
from repro.mapreduce.speculation import SpeculationPolicy
from repro.mapreduce.tasktracker import TaskTracker
from repro.runtime.services import ServiceRegistry
from repro.simulator.chaos import ChaosEngine
from repro.simulator.engine import Simulator
from repro.simulator.events import (
    BlockLost,
    EventBus,
    LinkDegraded,
    LinkRestored,
    NodeDeclaredDead,
    NodeDegraded,
    NodeDown,
    NodePurged,
    NodeRestored,
    NodeReturned,
    NodeUp,
    PartitionHealed,
    PartitionStarted,
    PermanentFailure,
    Phase,
    ReplicaAdded,
)
from repro.simulator.failures import FailureInjector
from repro.simulator.invariants import AUDIT_MODES, InvariantAuditor
from repro.simulator.metrics import DurabilityMetrics, MapPhaseMetrics
from repro.simulator.mitigation import MITIGATIONS, LinkMitigationService
from repro.simulator.network import Network
from repro.simulator.scenarios import ChaosCampaign
from repro.simulator.topology import TOPOLOGIES, ClosTopology
from repro.simulator.trace import TraceRecorder
from repro.util.rng import RandomSource
from repro.util.units import MB, mbit_per_s
from repro.util.validation import check_positive, env_override

_DETECTIONS = ("heartbeat", "oracle")

_T = TypeVar("_T")


@dataclass(frozen=True)
class ClusterConfig:
    """Deployment knobs (defaults follow the paper's Tables 3 and 4).

    Tunables no experiment varies are constructor defaults of the
    components that use them (DESIGN.md §4).
    """

    #: Per-node network bandwidth in Mb/s, both directions (paper sweeps
    #: 4-32; default 8).
    bandwidth_mbps: float = 8.0
    #: HDFS block size in bytes (default 64 MB).
    block_size_bytes: int = 64 * MB
    #: Failure detection: "heartbeat" (realistic lag) or "oracle" (instant).
    detection: str = "heartbeat"
    heartbeat_interval: float = 3.0
    heartbeat_miss_threshold: int = 3
    #: Flow-level max-min fair sharing (True) or uncontended links (False).
    fair_sharing: bool = True
    #: Network fabric: "flat" (every host on one non-blocking switch, the
    #: paper's network and the default: a one-rack Clos) or "clos" (hosts
    #: -> ToR -> spine, with shared, oversubscribable ToR trunks).
    topology: str = "flat"
    #: Racks in the Clos fabric; hosts are assigned round-robin
    #: (``rack_of(n) = n % racks``). With racks=1 the Clos fabric is the
    #: flat star. Ignored by "flat".
    racks: int = 1
    #: Clos trunk oversubscription ratio: a trunk carries its downstream
    #: aggregate bandwidth divided by this (1.0 = full bisection).
    oversubscription: float = 1.0
    #: Enforce HDFS's off-rack replica rule on ingest placement (only
    #: meaningful with a multi-rack topology; substitution preserves the
    #: placement RNG stream — see NameNode.set_rack_constraint).
    rack_aware_placement: bool = False
    #: Response to DegradedLink chaos windows: "none" (no service — the
    #: degradation events go unanswered and links keep nominal capacity)
    #: or one of repro.simulator.mitigation.MITIGATIONS.
    link_mitigation: str = "none"
    #: Pin the predictor to each host's true (lambda, mu) instead of
    #: estimating from heartbeats (Algorithm 1's stated inputs).
    oracle_estimates: bool = True
    #: Speculative re-execution of stragglers (off for ablation A5).
    speculation_enabled: bool = True
    #: Shift every interruption process this far into its past, so the run
    #: starts in (approximately) stationary state — some hosts already down
    #: at t=0, as when replaying a random window of a long trace. 0 starts
    #: every host up (the emulated-testbed behaviour).
    stationary_burn_in: float = 0.0
    #: Restrict ingest placement to currently-live nodes (True, testbed
    #: behaviour) or place over the whole membership (False — data loaded
    #: at an earlier time; only long-run availability is predictive).
    placement_liveness_filter: bool = True
    #: Durability pipeline: re-replicate under-replicated blocks when a
    #: holder is declared dead (see repro.hdfs.replication_monitor).
    #: Disabled by default — the paper's experiments model interruptions
    #: as recoverable and never pay recovery traffic.
    replication_monitor: bool = False
    #: Hardened read path: per-attempt remote-fetch retries with
    #: exponential backoff across surviving replicas (0 = fail fast).
    fetch_retries: int = 2
    #: Permanent failures: each host independently suffers an unrecoverable
    #: loss (disk wiped, never returns) with this probability, at a uniform
    #: time within ``permanent_failure_horizon``. 0 disables.
    permanent_failure_rate: float = 0.0
    permanent_failure_horizon: float = 600.0
    #: Capture every bus event in a TraceRecorder (exportable as JSONL via
    #: ``Cluster.tracer`` / the ``emulate --trace-out`` flag).
    trace_events: bool = False
    #: Cross-layer invariant auditing: "off", "report" (violations
    #: accumulate into ``Cluster.auditor.report``), or "strict" (the first
    #: violating audit raises). The ``REPRO_AUDIT`` environment variable
    #: overrides this at build time — CI runs the golden and durability
    #: suites with ``REPRO_AUDIT=strict``.
    audit: str = "off"
    #: Scripted chaos campaign layered on the stochastic injector (see
    #: repro.simulator.scenarios / repro.simulator.chaos). None = off.
    chaos: Optional[ChaosCampaign] = None
    #: Eagerly materialise every interruption episode starting before this
    #: simulated time at build, then close each per-host generator so the
    #: run loop pays no sampling cost (or suspended-frame memory) up to the
    #: horizon. Byte-identical to lazy sampling within the horizon; past it
    #: the prefixes stop (a busy period still open there is cut at a bound
    #: past it), so set this at or beyond the window you intend to simulate
    #: (``Cluster.run_until_job_done`` raises when a job outlives it). None
    #: keeps the lazy default.
    pregen_horizon: Optional[float] = None
    #: Root seed; every random stream in the cluster derives from it.
    seed: int = 0

    def __post_init__(self) -> None:
        check_positive("bandwidth_mbps", self.bandwidth_mbps)
        check_positive("block_size_bytes", self.block_size_bytes)
        if self.detection not in _DETECTIONS:
            raise ValueError(f"detection must be one of {_DETECTIONS}, got {self.detection!r}")
        check_positive("heartbeat_interval", self.heartbeat_interval)
        if self.fetch_retries < 0:
            raise ValueError("fetch_retries must be >= 0")
        if not 0.0 <= self.permanent_failure_rate <= 1.0:
            raise ValueError("permanent_failure_rate must be in [0, 1]")
        if self.permanent_failure_rate > 0.0:
            check_positive("permanent_failure_horizon", self.permanent_failure_horizon)
        if not self.stationary_burn_in >= 0.0:
            raise ValueError(
                f"stationary_burn_in must be non-negative, got {self.stationary_burn_in}"
            )
        if self.pregen_horizon is not None and not 0.0 <= self.pregen_horizon < math.inf:
            raise ValueError(
                f"pregen_horizon must be finite and non-negative, got {self.pregen_horizon}"
            )
        if self.topology not in TOPOLOGIES:
            raise ValueError(
                f"topology must be one of {TOPOLOGIES}, got {self.topology!r}"
            )
        if self.racks < 1:
            raise ValueError(f"racks must be >= 1, got {self.racks}")
        if self.oversubscription < 1.0:
            raise ValueError(
                f"oversubscription must be >= 1, got {self.oversubscription}"
            )
        if self.link_mitigation != "none" and self.link_mitigation not in MITIGATIONS:
            raise ValueError(
                f"link_mitigation must be 'none' or one of {MITIGATIONS}, "
                f"got {self.link_mitigation!r}"
            )
        if self.audit not in AUDIT_MODES:
            raise ValueError(f"audit must be one of {AUDIT_MODES}, got {self.audit!r}")
        if self.chaos is not None and not isinstance(self.chaos, ChaosCampaign):
            raise TypeError(f"chaos must be a ChaosCampaign, got {type(self.chaos)}")

    @property
    def link_bps(self) -> float:
        """Each host's link rate in bytes per second, both directions."""
        return mbit_per_s(self.bandwidth_mbps)


@dataclass
class BuildProfile:
    """Wall-clock breakdown of one ``build_cluster`` call.

    Each itemised field times one build stage: ``object_construction_seconds``
    the construction stage, ``bus_wiring_seconds`` the wiring stage and
    ``pregen_seconds`` the availability stage. ``total_seconds`` covers the
    whole build, including permanent-failure arming and service
    registration and start, so the itemised stages sum to less.
    ``unstable_hosts`` counts the hosts with rho = lambda * mu >= 1
    (:func:`~repro.availability.generator.count_unstable`).
    """

    pregen_seconds: float = 0.0
    object_construction_seconds: float = 0.0
    bus_wiring_seconds: float = 0.0
    total_seconds: float = 0.0
    unstable_hosts: int = 0

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready snapshot (bench_engine's build_breakdown)."""
        return {
            "pregen_seconds": round(self.pregen_seconds, 4),
            "object_construction_seconds": round(self.object_construction_seconds, 4),
            "bus_wiring_seconds": round(self.bus_wiring_seconds, 4),
            "total_seconds": round(self.total_seconds, 4),
            "unstable_hosts": self.unstable_hosts,
        }


@dataclass(eq=False, repr=False)
class Cluster:
    """A fully wired simulated deployment: its components, as
    :func:`build_cluster` made them (None where the config leaves one out)."""

    config: ClusterConfig
    hosts: List[HostAvailability]
    #: Name <-> dense-int identity table. Every runtime structure keys
    #: by the int id; reporting surfaces translate back through this.
    ids: NodeIds
    sim: Simulator
    rng: RandomSource
    bus: EventBus
    network: Network
    injector: FailureInjector
    namenode: NameNode
    datanodes: Dict[NodeId, DataNode]
    trackers: Dict[NodeId, TaskTracker]
    metrics: MapPhaseMetrics
    durability: DurabilityMetrics
    jobtracker: JobTracker
    heartbeats: Optional[HeartbeatService]
    detector: Optional[OracleDetector]
    monitor: Optional[ReplicationMonitor]
    pipeline: PermanentFailurePipeline
    chaos: Optional[ChaosEngine]
    mitigation: Optional[LinkMitigationService]
    tracer: Optional[TraceRecorder]
    client: DfsClient
    #: Wall-clock stage breakdown of the build that produced this cluster.
    build_profile: BuildProfile
    services: ServiceRegistry = field(default_factory=ServiceRegistry)
    auditor: Optional[InvariantAuditor] = None

    @property
    def node_ids(self) -> List[NodeId]:
        """Dense int node ids, ascending (== host registration order)."""
        return sorted(self.trackers)

    @property
    def node_names(self) -> List[str]:
        """Host names in id order — the reporting-boundary view."""
        return [self.ids.name_of(node_id) for node_id in self.node_ids]

    @property
    def node_count(self) -> int:
        return len(self.trackers)

    @property
    def total_slots(self) -> int:
        return sum(t.slots for t in self.trackers.values())

    def start(self) -> None:
        """Start every registered service, in registration order.

        ``build_cluster`` calls this once after wiring; Service.start is
        idempotent by contract, so calling it again is harmless.
        """
        self.services.start_all()

    def run_until_job_done(self, max_events: int = 500_000_000) -> None:
        """Advance the simulation until the submitted job finishes.

        The failure injector's event stream is endless, so "run until the
        heap drains" never terminates; this helper arms the JobTracker to
        halt the simulator when the job finishes, so the run ends right
        after the event that finished it (or when the safety budget trips).

        The livelock error fires once more than ``max_events`` events
        have run, even when that last event finished the job.

        A job that finishes past ``config.pregen_horizon`` raises: the
        pregenerated streams end at the horizon, so every interruption
        after it went unsimulated and the result would be silently skewed.
        """
        jobtracker = self.jobtracker
        executed = 0
        if not jobtracker.is_done:
            jobtracker.halt_on_finish = True
            try:
                executed = self.sim.run(max_events=max_events + 1)
            finally:
                jobtracker.halt_on_finish = False
        if executed > max_events:
            raise RuntimeError(
                f"job did not finish within {max_events} events; "
                "likely a livelock (check replica reachability settings)"
            )
        if not jobtracker.is_done:
            raise RuntimeError("event heap drained before the job finished")
        horizon = self.config.pregen_horizon
        if horizon is not None and self.sim.now > horizon:
            raise RuntimeError(
                f"job finished at t={self.sim.now} s, past pregen_horizon={horizon} s; "
                "no interruption after the horizon was simulated, so raise "
                "pregen_horizon to cover the whole run"
            )

    def stop(self) -> None:
        """Tear the cluster down: stop every service, then release the wiring.

        Services stop in reverse registration order (consumers before
        producers — see :meth:`ServiceRegistry.stop_all`) and cancel
        everything they armed, so the simulator heap holds no live entry
        afterwards: abandoned clusters don't leak beats, watchdogs,
        interruption streams, sweeps or re-replication retries. Then the
        bus drops its subscriptions and taps and the TaskTrackers drop
        the JobTracker, which breaks the last cycles between services: a
        stopped cluster the caller drops is freed by reference counting
        (DESIGN.md §10, "Teardown"). Counters and reports stay readable.
        """
        self.services.stop_all()
        self.bus.clear()
        for tracker in self.trackers.values():
            tracker.bind(None)


def build_cluster(
    hosts: Sequence[HostAvailability],
    config: ClusterConfig,
    traces: Optional[Sequence[AvailabilityTrace]] = None,
    default_gamma: float = 12.0,
) -> Cluster:
    """Assemble a cluster for the given host population.

    ``traces``, when given, must parallel ``hosts`` (same ids) and the
    failure injector replays them instead of sampling each host's
    interruption process live. Replay gives byte-identical failure
    realisations across arbitrary configuration changes; live sampling is
    already identical across *placement-policy* changes because each
    node's stream is keyed by (seed, node id) alone.
    """
    if not hosts:
        raise ValueError("need at least one host")
    cluster, total_seconds = _timed(_assemble, hosts, config, traces, default_gamma)
    cluster.build_profile.total_seconds = total_seconds
    return cluster


def _timed(stage: Callable[..., _T], *args: object) -> Tuple[_T, float]:
    """Run one build stage; return its result and its wall-clock seconds."""
    start = time.perf_counter()  # simlint: ignore[D002]
    result = stage(*args)
    return result, time.perf_counter() - start  # simlint: ignore[D002]


def _assemble(
    hosts: Sequence[HostAvailability],
    config: ClusterConfig,
    traces: Optional[Sequence[AvailabilityTrace]],
    default_gamma: float,
) -> Cluster:
    """Run the build stages in order; each one's statements keep their order.

    Bus subscriptions within a phase, taps and engine sequence numbers
    are all taken in call order, so the stage order is load-bearing:
    heartbeat ``track`` calls reserve sequence numbers before the
    availability streams are attached, and those before permanent
    failures are armed and the services start (DESIGN.md §11,
    "Construction & wiring").
    """
    profile = BuildProfile(unstable_hosts=count_unstable(hosts))
    cluster, profile.object_construction_seconds = _timed(
        _construct, hosts, config, default_gamma, profile
    )
    _, profile.bus_wiring_seconds = _timed(_wire, cluster)
    _, profile.pregen_seconds = _timed(_attach_availability, cluster, traces)
    _arm_permanent_failures(cluster)
    _register_services(cluster)
    return cluster


def _construct(
    hosts: Sequence[HostAvailability],
    config: ClusterConfig,
    default_gamma: float,
    profile: BuildProfile,
) -> Cluster:
    """Stage 1: build every component; heartbeats ``track`` each host here."""
    names = [h.host_id for h in hosts]
    if len(set(names)) != len(names):
        raise ValueError("host ids must be unique")
    # Intern every host name once; all hot structures below key by the
    # dense int id, and the table rides on the Cluster for reporting.
    ids = NodeIds()
    node_ids = [ids.intern(name) for name in names]

    sim = Simulator()
    rng = RandomSource(config.seed)
    bus = EventBus()
    tracer: Optional[TraceRecorder] = None
    if config.trace_events:
        tracer = TraceRecorder(bus, ids=ids)
    topology = ClosTopology(
        hosts=len(hosts),
        racks=config.racks if config.topology == "clos" else 1,
        host_link_bps=config.link_bps,
        oversubscription=config.oversubscription,
    )
    network = Network(
        sim, link_bps=config.link_bps, fair_sharing=config.fair_sharing, topology=topology
    )
    # The injector owns physical state, so it comes first: placement reads
    # it through the NameNode. Attaching the streams is stage 3's.
    injector = FailureInjector(sim, bus=bus)
    predictor = PerformancePredictor()
    namenode = NameNode(
        predictor,
        placement_liveness_filter=config.placement_liveness_filter,
        is_down=injector.is_down,
    )
    if config.rack_aware_placement:
        namenode.set_rack_constraint(topology.rack_of)
    metrics = MapPhaseMetrics()
    durability = DurabilityMetrics()

    datanodes: Dict[NodeId, DataNode] = {}
    trackers: Dict[NodeId, TaskTracker] = {}
    for nid, host in zip(node_ids, hosts):
        datanode = DataNode(nid)
        namenode.register_datanode(datanode)
        datanodes[nid] = datanode
        trackers[nid] = TaskTracker(
            sim,
            nid,
            network,
            metrics,
            fetch_retries=config.fetch_retries,
            durability=durability,
        )
        if config.oracle_estimates:
            predictor.pin_oracle(
                nid,
                AvailabilityEstimate(
                    arrival_rate=host.arrival_rate,
                    recovery_mean=host.service_mean,
                    observations=1,
                ),
            )

    speculation = SpeculationPolicy(
        enabled=config.speculation_enabled,
        fetch_rate_bps=network.nominal_rate_bps,
    )
    jobtracker = JobTracker(
        sim,
        namenode,
        network,
        trackers,
        metrics,
        speculation=speculation,
        bus=bus,
    )
    for tracker in trackers.values():
        tracker.bind(jobtracker)

    heartbeats: Optional[HeartbeatService] = None
    detector: Optional[OracleDetector] = None
    if config.detection == "heartbeat":
        heartbeats = HeartbeatService(
            sim,
            namenode,
            interval=config.heartbeat_interval,
            miss_threshold=config.heartbeat_miss_threshold,
            bus=bus,
        )
        for nid in node_ids:
            heartbeats.track(nid)
    else:
        detector = OracleDetector(namenode, bus=bus)

    monitor: Optional[ReplicationMonitor] = None
    if config.replication_monitor:
        monitor = ReplicationMonitor(
            sim,
            namenode,
            network,
            metrics=durability,
            is_permanent=injector.is_permanently_failed,
            bus=bus,
        )

    pipeline = PermanentFailurePipeline(namenode, durability, bus=bus)

    chaos: Optional[ChaosEngine] = None
    mitigation: Optional[LinkMitigationService] = None
    if config.chaos is not None:
        chaos = ChaosEngine(
            sim,
            bus,
            config.chaos,
            rng,
            injector,
            namenode=namenode,
            ids=ids,
            network=network,
        )
        if config.link_mitigation != "none":
            # One service class, strategy by composition: the bus wiring
            # (and the static busgraph extracted from it) is identical no
            # matter which response the config names.
            mitigation = LinkMitigationService(
                network, strategy=config.link_mitigation, ids=ids
            )

    client = DfsClient(
        namenode,
        rng.substream("client"),
        default_block_size=config.block_size_bytes,
        default_gamma=default_gamma,
    )
    return Cluster(
        config=config,
        hosts=list(hosts),
        ids=ids,
        sim=sim,
        rng=rng,
        bus=bus,
        network=network,
        injector=injector,
        namenode=namenode,
        datanodes=datanodes,
        trackers=trackers,
        metrics=metrics,
        durability=durability,
        jobtracker=jobtracker,
        heartbeats=heartbeats,
        detector=detector,
        monitor=monitor,
        pipeline=pipeline,
        chaos=chaos,
        mitigation=mitigation,
        tracer=tracer,
        client=client,
        build_profile=profile,
    )


def _wire(cluster: Cluster) -> None:
    """Stage 2: every bus subscription (phases encode the reaction order;
    see the module docstring)."""
    bus = cluster.bus
    network = cluster.network
    jobtracker = cluster.jobtracker
    heartbeats = cluster.heartbeats
    detector = cluster.detector
    chaos = cluster.chaos
    # Annotated: simlint types handler owners through annotated locals.
    trackers: Dict[NodeId, TaskTracker] = cluster.trackers
    ordered_ids = cluster.node_ids

    # Physical transitions (the injector's ground truth). The per-host
    # keyed subscriptions go through the bulk fast path: each (type, key)
    # bucket holds one handler per phase, so grouping by (type, phase)
    # instead of by host dispatches identically.
    bus.subscribe(NodeDown, jobtracker.handle_node_down_physical, Phase.ACCOUNTING)
    bus.subscribe(NodeUp, jobtracker.handle_node_up_physical, Phase.ACCOUNTING)
    bus.subscribe_many(
        NodeDown,
        Phase.COMPUTE,
        ((nid, trackers[nid].handle_node_down) for nid in ordered_ids),
    )
    bus.subscribe_many(
        NodeUp,
        Phase.SCHEDULING,
        ((nid, trackers[nid].handle_node_up) for nid in ordered_ids),
    )
    if heartbeats is not None:
        bus.subscribe(NodeDown, heartbeats.handle_node_down, Phase.DETECTION)
        bus.subscribe(NodeUp, heartbeats.handle_node_up, Phase.DETECTION)
        bus.subscribe(NodePurged, heartbeats.handle_node_purged, Phase.DETECTION)
    else:
        assert detector is not None
        bus.subscribe(NodeDown, detector.handle_node_down, Phase.DETECTION)
        bus.subscribe(NodeUp, detector.handle_node_up, Phase.DETECTION)

    # Permanent failures: destruction precedes detection — the pipeline
    # wipes in STORAGE phase and the network tears flows down in NETWORK
    # phase, all before the injector publishes the accompanying NodeDown.
    bus.subscribe(PermanentFailure, cluster.pipeline.handle_permanent_failure, Phase.STORAGE)
    bus.subscribe(PermanentFailure, network.handle_permanent_failure, Phase.NETWORK)
    bus.subscribe(BlockLost, jobtracker.handle_block_lost, Phase.SCHEDULING)

    # Belief transitions (published by whichever detector is configured):
    # the monitor purges/queues in STORAGE phase, before the JobTracker
    # requeues work against the settled replica map in SCHEDULING phase.
    if cluster.monitor is not None:
        bus.subscribe(NodeDeclaredDead, cluster.monitor.handle_node_dead, Phase.STORAGE)
        bus.subscribe(NodeReturned, cluster.monitor.handle_node_returned, Phase.STORAGE)
    bus.subscribe(NodeDeclaredDead, jobtracker.handle_node_dead, Phase.SCHEDULING)
    bus.subscribe(ReplicaAdded, jobtracker.handle_replica_added, Phase.SCHEDULING)

    # Chaos campaign: scripted scenarios injected through the same bus the
    # cluster already reacts to. Partition and gray events stall/throttle
    # flows in NETWORK phase and stretch execution per-node in COMPUTE
    # phase; heartbeat-blocking partitions suppress beats in DETECTION
    # phase. The engine itself measures in ACCOUNTING phase, observing raw
    # transitions before any reaction mutates state.
    if chaos is not None:
        mitigation = cluster.mitigation
        if mitigation is not None:
            bus.subscribe(LinkDegraded, mitigation.handle_link_degraded, Phase.NETWORK)
            bus.subscribe(LinkRestored, mitigation.handle_link_restored, Phase.NETWORK)
        bus.subscribe(PartitionStarted, network.handle_partition_started, Phase.NETWORK)
        bus.subscribe(PartitionHealed, network.handle_partition_healed, Phase.NETWORK)
        bus.subscribe(NodeDegraded, network.handle_node_degraded, Phase.NETWORK)
        bus.subscribe(NodeRestored, network.handle_node_restored, Phase.NETWORK)
        bus.subscribe_many(
            NodeDegraded,
            Phase.COMPUTE,
            ((nid, trackers[nid].handle_node_degraded) for nid in ordered_ids),
        )
        bus.subscribe_many(
            NodeRestored,
            Phase.COMPUTE,
            ((nid, trackers[nid].handle_node_restored) for nid in ordered_ids),
        )
        if heartbeats is not None:
            bus.subscribe(PartitionStarted, heartbeats.handle_partition_started, Phase.DETECTION)
            bus.subscribe(PartitionHealed, heartbeats.handle_partition_healed, Phase.DETECTION)
        bus.subscribe(NodeDown, chaos.handle_node_down, Phase.ACCOUNTING)
        bus.subscribe(NodeUp, chaos.handle_node_up, Phase.ACCOUNTING)
        bus.subscribe(NodeDeclaredDead, chaos.handle_declared_dead, Phase.ACCOUNTING)
        bus.subscribe(NodeReturned, chaos.handle_node_returned, Phase.ACCOUNTING)
        bus.subscribe(ReplicaAdded, chaos.handle_replica_added, Phase.ACCOUNTING)


def _attach_availability(
    cluster: Cluster, traces: Optional[Sequence[AvailabilityTrace]]
) -> None:
    """Stage 3: hand the injector each host's episode stream, in host order.

    The one place a stream is chosen: a replayed trace, the host's stream
    materialised to ``pregen_horizon``, or the lazy stream. Streams are
    keyed by (seed, host name) alone, so within the horizon a prefix
    fires the lazy stream's transitions, and the id representation never
    changes a realisation.
    """
    config = cluster.config
    ids = cluster.ids
    rng = cluster.rng
    horizon = config.pregen_horizon
    burn_in = config.stationary_burn_in
    if traces is not None and [trace.host_id for trace in traces] != ids.names():
        raise ValueError("traces must parallel hosts (same ids, same order)")
    for index, host in enumerate(cluster.hosts):
        episodes: Optional[Iterable[Episode]]
        if traces is not None:
            episodes = traces[index].episodes()
        elif horizon is not None:
            episodes = episode_prefix(host, rng, horizon, burn_in)
        else:
            episodes = host_stream(host, rng, burn_in)
        cluster.injector.attach_host(ids.id_of(host.host_id), episodes)


def _arm_permanent_failures(cluster: Cluster) -> None:
    """Stage 4: draw which hosts fail for good, and when."""
    rate = cluster.config.permanent_failure_rate
    if rate <= 0.0:
        return
    horizon = cluster.config.permanent_failure_horizon
    # Keyed per host so one host's draw never perturbs another's — the
    # same property the interruption streams have.
    for host in cluster.hosts:
        perm_rng = cluster.rng.substream("permanent", host.host_id)
        if perm_rng.random() < rate:
            cluster.injector.schedule_permanent_failure(
                cluster.ids.id_of(host.host_id), at_time=perm_rng.uniform(0.0, horizon)
            )


def _register_services(cluster: Cluster) -> None:
    """Stage 5: create the auditor, fill the registry, start the cluster.

    Registration order is start order; stop is the reverse, so consumers
    always stop before the producers they read.
    """
    # Cross-layer invariant auditing. The environment variable lets CI (and
    # local debugging) force strict audits over any existing configuration
    # without plumbing a flag through every entry point.
    audit_mode = env_override("REPRO_AUDIT", cluster.config.audit, AUDIT_MODES)
    if audit_mode != "off":
        cluster.auditor = InvariantAuditor(
            cluster.sim,
            cluster.bus,
            namenode=cluster.namenode,
            injector=cluster.injector,
            network=cluster.network,
            trackers=cluster.trackers,
            metrics=cluster.metrics,
            jobtracker=cluster.jobtracker,
            durability=cluster.durability,
            mode=audit_mode,
        )

    services = cluster.services
    services.register(cluster.network)
    services.register(cluster.injector)
    services.register(cluster.pipeline)
    # Bulk-registered in host order (the dict iterates in it). Annotated
    # so simlint sees which class register_bulk registers.
    trackers: Dict[NodeId, TaskTracker] = cluster.trackers
    if cluster.heartbeats is not None:
        services.register(cluster.heartbeats)
    if cluster.detector is not None:
        services.register(cluster.detector)
    if cluster.monitor is not None:
        services.register(cluster.monitor)
    services.register(cluster.jobtracker)
    services.register_bulk(trackers.values())
    if cluster.mitigation is not None:
        # Before the chaos engine: a window already armed at start must
        # find its responder subscribed and started.
        services.register(cluster.mitigation)
    if cluster.chaos is not None:
        # After the injector and every reactor: starting the engine arms
        # the campaign against a fully attached node population.
        services.register(cluster.chaos)
    if cluster.tracer is not None:
        services.register(cluster.tracer)
    if cluster.auditor is not None:
        # Registered last so it stops FIRST: the final teardown audit must
        # see live cluster state, before trackers kill their attempts.
        services.register(cluster.auditor)
    cluster.start()
