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
STORAGE            DataNode toggles physical availability
COMPUTE            TaskTracker kills the attempts that lived on the node
NETWORK            (hard mode only) in-flight flows of a down node torn down
DETECTION          heartbeat bookkeeping, or the oracle marking belief
SCHEDULING         the returned node's TaskTracker asks for work
=================  ==========================================================

Belief events (``NodeDeclaredDead`` / ``NodeReturned``) are published by
whichever detector is configured; the replication monitor reacts in
STORAGE phase (purge before requeue) and the JobTracker in SCHEDULING.
Permanent failures wipe storage in STORAGE phase
(:class:`~repro.hdfs.durability.PermanentFailurePipeline`) and tear down
flows in NETWORK phase — both before the ``NodeDown`` that follows.

Every long-lived subsystem satisfies the
:class:`~repro.runtime.services.Service` protocol and is owned by the
cluster's :class:`~repro.runtime.services.ServiceRegistry`, so teardown is
one loop in reverse registration order.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.availability.estimators import AvailabilityEstimate
from repro.availability.generator import HostAvailability, count_unstable
from repro.availability.pregen import pregenerate_prefixes
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
from repro.simulator.topology import TOPOLOGIES, make_topology
from repro.simulator.trace import TraceRecorder
from repro.util.rng import RandomSource
from repro.util.units import MB, mbit_per_s
from repro.util.validation import check_positive, env_override

_DETECTIONS = ("heartbeat", "oracle")


@dataclass(frozen=True)
class ClusterConfig:
    """Deployment knobs (defaults follow the paper's Tables 3 and 4)."""

    #: Per-node network bandwidth in Mb/s (paper sweeps 4-32; default 8).
    bandwidth_mbps: float = 8.0
    #: Downlink override in Mb/s; None means symmetric links.
    downlink_mbps: Optional[float] = None
    #: HDFS block size in bytes (default 64 MB).
    block_size_bytes: int = 64 * MB
    #: Map slots per node (the paper's VMs have one core).
    slots_per_node: int = 1
    #: Failure detection: "heartbeat" (realistic lag) or "oracle" (instant).
    detection: str = "heartbeat"
    heartbeat_interval: float = 3.0
    heartbeat_miss_threshold: int = 3
    #: Whether a down host's stored blocks stay streamable (see JobTracker).
    access_during_downtime: bool = True
    #: Flow-level max-min fair sharing (True) or uncontended links (False).
    fair_sharing: bool = True
    #: Network topology: "flat" (every host on one non-blocking switch,
    #: the golden-bearing default) or "clos" (hosts -> ToR -> aggregation
    #: fabric with shared, oversubscribable trunks).
    topology: str = "flat"
    #: Racks in the Clos fabric; hosts are assigned round-robin
    #: (``rack_of(n) = n % racks``). With racks=1 and oversubscription=1
    #: the Clos fabric is byte-identical to the flat star. Ignored by
    #: "flat".
    racks: int = 1
    #: Clos trunk oversubscription ratio: a trunk carries its downstream
    #: aggregate bandwidth divided by this (1.0 = full bisection).
    oversubscription: float = 1.0
    #: Aggregation pods (racks grouped per pod); 1 keeps the fabric at
    #: two tiers (no aggregation links). Ignored by "flat".
    pods: int = 1
    #: ECMP members per fabric trunk — only consulted by the
    #: disable-and-reroute mitigation ((width-1)/width survives).
    trunk_width: int = 4
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
    #: Speculation tunables.
    speculation_enabled: bool = True
    speculation_slowdown: float = 2.0
    max_speculative_per_task: int = 1
    #: JobTracker idle-node re-poll period.
    sweep_interval: float = 3.0
    #: Shift every interruption process this far into its past, so the run
    #: starts in (approximately) stationary state — some hosts already down
    #: at t=0, as when replaying a random window of a long trace. 0 starts
    #: every host up (the emulated-testbed behaviour).
    stationary_burn_in: float = 0.0
    #: Restrict ingest placement to currently-live nodes (True, testbed
    #: behaviour) or place over the whole membership (False — data loaded
    #: at an earlier time; only long-run availability is predictive).
    placement_liveness_filter: bool = True
    #: Estimator prior when oracle_estimates is False. The prior is worth
    #: prior_weight pseudo-episodes over prior_weight*prior_mtbi pseudo-
    #: uptime; the small default weight lets real heartbeat data dominate
    #: after a short warmup.
    prior_mtbi: float = 1e6
    prior_recovery: float = 0.0
    prior_weight: float = 1e-4
    #: Durability pipeline: re-replicate under-replicated blocks when a
    #: holder is declared dead (see repro.hdfs.replication_monitor).
    #: Disabled by default — the paper's experiments model interruptions
    #: as recoverable and never pay recovery traffic.
    replication_monitor: bool = False
    rereplication_max_concurrent: int = 2
    rereplication_retry_budget: int = 4
    rereplication_backoff_base: float = 5.0
    rereplication_backoff_max: float = 60.0
    #: Hardened read path: per-attempt remote-fetch retries with
    #: exponential backoff across surviving replicas (0 = fail fast).
    fetch_retries: int = 2
    fetch_backoff: float = 1.0
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
    #: Simulated seconds between periodic audits (teardown always audits).
    audit_interval: float = 25.0
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
        if self.downlink_mbps is not None:
            check_positive("downlink_mbps", self.downlink_mbps)
        check_positive("block_size_bytes", self.block_size_bytes)
        if self.slots_per_node < 1:
            raise ValueError("slots_per_node must be >= 1")
        if self.detection not in _DETECTIONS:
            raise ValueError(f"detection must be one of {_DETECTIONS}, got {self.detection!r}")
        check_positive("heartbeat_interval", self.heartbeat_interval)
        check_positive("sweep_interval", self.sweep_interval)
        if self.fetch_retries < 0:
            raise ValueError("fetch_retries must be >= 0")
        check_positive("fetch_backoff", self.fetch_backoff)
        if not 0.0 <= self.permanent_failure_rate <= 1.0:
            raise ValueError("permanent_failure_rate must be in [0, 1]")
        if self.permanent_failure_rate > 0.0:
            check_positive("permanent_failure_horizon", self.permanent_failure_horizon)
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
        if self.pods < 1:
            raise ValueError(f"pods must be >= 1, got {self.pods}")
        if self.trunk_width < 1:
            raise ValueError(f"trunk_width must be >= 1, got {self.trunk_width}")
        if self.link_mitigation != "none" and self.link_mitigation not in MITIGATIONS:
            raise ValueError(
                f"link_mitigation must be 'none' or one of {MITIGATIONS}, "
                f"got {self.link_mitigation!r}"
            )
        if self.audit not in AUDIT_MODES:
            raise ValueError(f"audit must be one of {AUDIT_MODES}, got {self.audit!r}")
        check_positive("audit_interval", self.audit_interval)
        if self.chaos is not None and not isinstance(self.chaos, ChaosCampaign):
            raise TypeError(f"chaos must be a ChaosCampaign, got {type(self.chaos)}")

    @property
    def uplink_bps(self) -> float:
        return mbit_per_s(self.bandwidth_mbps)

    @property
    def downlink_bps(self) -> float:
        return mbit_per_s(
            self.downlink_mbps if self.downlink_mbps is not None else self.bandwidth_mbps
        )

    def nominal_fetch_seconds(self) -> float:
        """Uncontended time to stream one block (speculation threshold)."""
        return self.block_size_bytes / min(self.uplink_bps, self.downlink_bps)


@dataclass
class BuildProfile:
    """Wall-clock breakdown of one ``build_cluster`` call.

    The itemised phases are disjoint. ``total_seconds`` covers the whole
    build including un-itemised glue, so the itemised phases sum to less.
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


class Cluster:
    """A fully wired simulated deployment."""

    def __init__(
        self,
        config: ClusterConfig,
        hosts: Sequence[HostAvailability],
        sim: Simulator,
        rng: RandomSource,
        network: Network,
        injector: FailureInjector,
        namenode: NameNode,
        trackers: Dict[NodeId, TaskTracker],
        metrics: MapPhaseMetrics,
        jobtracker: JobTracker,
        heartbeats: Optional[HeartbeatService],
        client: DfsClient,
        durability: Optional[DurabilityMetrics] = None,
        monitor: Optional[ReplicationMonitor] = None,
        bus: Optional[EventBus] = None,
        services: Optional[ServiceRegistry] = None,
        detector: Optional[OracleDetector] = None,
        tracer: Optional[TraceRecorder] = None,
        auditor: Optional[InvariantAuditor] = None,
        chaos: Optional[ChaosEngine] = None,
        mitigation: Optional[LinkMitigationService] = None,
        ids: Optional[NodeIds] = None,
        build_profile: Optional[BuildProfile] = None,
    ) -> None:
        self.config = config
        self.hosts = list(hosts)
        #: Name <-> dense-int identity table. Every runtime structure keys
        #: by the int id; reporting surfaces translate back through this.
        self.ids = ids if ids is not None else NodeIds()
        self.sim = sim
        self.rng = rng
        self.network = network
        self.injector = injector
        self.namenode = namenode
        self.trackers = trackers
        self.metrics = metrics
        self.jobtracker = jobtracker
        self.heartbeats = heartbeats
        self.client = client
        self.durability = durability if durability is not None else DurabilityMetrics()
        self.monitor = monitor
        self.bus = bus if bus is not None else EventBus()
        self.services = services if services is not None else ServiceRegistry()
        self.detector = detector
        self.tracer = tracer
        self.auditor = auditor
        self.chaos = chaos
        self.mitigation = mitigation
        #: Wall-clock phase breakdown of the build that produced this
        #: cluster (None for hand-wired clusters).
        self.build_profile = build_profile

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
        """Tear the cluster down: stop every registered service.

        Services stop in reverse registration order (consumers before
        producers — see :meth:`ServiceRegistry.stop_all`), after which the
        simulator heap drains naturally: nothing re-arms, so abandoned
        clusters don't leak beats, watchdogs, interruption streams, or
        re-replication retries.
        """
        self.services.stop_all()


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
    build_start = time.perf_counter()  # simlint: ignore[D002]
    profile = BuildProfile(unstable_hosts=count_unstable(hosts))
    names = [h.host_id for h in hosts]
    if len(set(names)) != len(names):
        raise ValueError("host ids must be unique")
    # Intern every host name once; all hot structures below key by the
    # dense int id, and the table rides on the Cluster for reporting.
    ids = NodeIds()
    node_id_of = {name: ids.intern(name) for name in names}

    sim = Simulator()
    rng = RandomSource(config.seed)
    bus = EventBus()
    tracer: Optional[TraceRecorder] = None
    if config.trace_events:
        tracer = TraceRecorder(bus, ids=ids)
    topology = make_topology(
        config.topology,
        hosts=len(hosts),
        uplink_bps=config.uplink_bps,
        downlink_bps=config.downlink_bps,
        racks=config.racks,
        oversubscription=config.oversubscription,
        pods=config.pods,
        trunk_width=config.trunk_width,
    )
    network = Network(
        sim,
        uplink_bps=config.uplink_bps,
        downlink_bps=config.downlink_bps,
        fair_sharing=config.fair_sharing,
        topology=topology,
    )
    predictor = PerformancePredictor(
        prior_mtbi=config.prior_mtbi,
        prior_recovery=config.prior_recovery,
        prior_weight=config.prior_weight,
    )
    namenode = NameNode(
        predictor, placement_liveness_filter=config.placement_liveness_filter
    )
    if config.rack_aware_placement:
        namenode.set_rack_constraint(topology.rack_of)
    metrics = MapPhaseMetrics()
    durability = DurabilityMetrics()
    injector = FailureInjector(sim, rng, bus=bus)

    # Per-host objects: slotted, with service names derived lazily from
    # the id table (eager `datanode:<host>` f-strings are pure build
    # overhead at 226k nodes; see DataNode/TaskTracker docstrings).
    construct_start = time.perf_counter()  # simlint: ignore[D002]
    datanodes: Dict[NodeId, DataNode] = {}
    trackers: Dict[NodeId, TaskTracker] = {}
    for host in hosts:
        nid = node_id_of[host.host_id]
        datanode = DataNode(nid, names=ids)
        namenode.register_datanode(datanode)
        datanodes[nid] = datanode
        trackers[nid] = TaskTracker(
            sim,
            nid,
            network,
            metrics,
            slots=config.slots_per_node,
            fetch_retries=config.fetch_retries,
            fetch_backoff=config.fetch_backoff,
            durability=durability,
            names=ids,
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
    profile.object_construction_seconds = time.perf_counter() - construct_start  # simlint: ignore[D002]

    speculation = SpeculationPolicy(
        enabled=config.speculation_enabled,
        slowdown=config.speculation_slowdown,
        max_per_task=config.max_speculative_per_task,
        nominal_fetch_seconds=config.nominal_fetch_seconds(),
    )
    jobtracker = JobTracker(
        sim,
        namenode,
        network,
        trackers,
        metrics,
        access_during_downtime=config.access_during_downtime,
        speculation=speculation,
        sweep_interval=config.sweep_interval,
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
        for host in hosts:
            heartbeats.track(node_id_of[host.host_id])
    else:
        detector = OracleDetector(namenode, bus=bus)

    monitor: Optional[ReplicationMonitor] = None
    if config.replication_monitor:
        monitor = ReplicationMonitor(
            sim,
            namenode,
            network,
            metrics=durability,
            max_concurrent=config.rereplication_max_concurrent,
            retry_budget=config.rereplication_retry_budget,
            backoff_base=config.rereplication_backoff_base,
            backoff_max=config.rereplication_backoff_max,
            is_permanent=injector.is_permanently_failed,
            bus=bus,
        )

    pipeline = PermanentFailurePipeline(namenode, durability, bus=bus)

    # -- bus wiring (phases encode the reaction order; see module docstring) ----

    wiring_start = time.perf_counter()  # simlint: ignore[D002]
    ordered_ids = [node_id_of[host.host_id] for host in hosts]

    # Physical transitions (the injector's ground truth). The per-host
    # keyed subscriptions go through the bulk fast path: each (type, key)
    # bucket holds one handler per phase, so grouping by (type, phase)
    # instead of by host dispatches identically.
    bus.subscribe(NodeDown, jobtracker.handle_node_down_physical, Phase.ACCOUNTING)
    bus.subscribe(NodeUp, jobtracker.handle_node_up_physical, Phase.ACCOUNTING)
    bus.subscribe_many(
        NodeDown,
        Phase.STORAGE,
        ((nid, datanodes[nid].handle_node_down) for nid in ordered_ids),
    )
    bus.subscribe_many(
        NodeUp,
        Phase.STORAGE,
        ((nid, datanodes[nid].handle_node_up) for nid in ordered_ids),
    )
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
    if not config.access_during_downtime:
        bus.subscribe(NodeDown, network.handle_node_down, Phase.NETWORK)
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
    bus.subscribe(PermanentFailure, pipeline.handle_permanent_failure, Phase.STORAGE)
    bus.subscribe(PermanentFailure, network.handle_permanent_failure, Phase.NETWORK)
    bus.subscribe(BlockLost, jobtracker.handle_block_lost, Phase.SCHEDULING)

    # Belief transitions (published by whichever detector is configured):
    # the monitor purges/queues in STORAGE phase, before the JobTracker
    # requeues work against the settled replica map in SCHEDULING phase.
    if monitor is not None:
        bus.subscribe(NodeDeclaredDead, monitor.handle_node_dead, Phase.STORAGE)
        bus.subscribe(NodeReturned, monitor.handle_node_returned, Phase.STORAGE)
    bus.subscribe(NodeDeclaredDead, jobtracker.handle_node_dead, Phase.SCHEDULING)
    bus.subscribe(ReplicaAdded, jobtracker.handle_replica_added, Phase.SCHEDULING)

    # Chaos campaign: scripted scenarios injected through the same bus the
    # cluster already reacts to. Partition and gray events stall/throttle
    # flows in NETWORK phase and stretch execution per-node in COMPUTE
    # phase; heartbeat-blocking partitions suppress beats in DETECTION
    # phase. The engine itself measures in ACCOUNTING phase, observing raw
    # transitions before any reaction mutates state.
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
            bus.subscribe(
                LinkDegraded, mitigation.handle_link_degraded, Phase.NETWORK
            )
            bus.subscribe(
                LinkRestored, mitigation.handle_link_restored, Phase.NETWORK
            )
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
            bus.subscribe(
                PartitionStarted, heartbeats.handle_partition_started, Phase.DETECTION
            )
            bus.subscribe(
                PartitionHealed, heartbeats.handle_partition_healed, Phase.DETECTION
            )
        bus.subscribe(NodeDown, chaos.handle_node_down, Phase.ACCOUNTING)
        bus.subscribe(NodeUp, chaos.handle_node_up, Phase.ACCOUNTING)
        bus.subscribe(NodeDeclaredDead, chaos.handle_declared_dead, Phase.ACCOUNTING)
        bus.subscribe(NodeReturned, chaos.handle_node_returned, Phase.ACCOUNTING)
        bus.subscribe(ReplicaAdded, chaos.handle_replica_added, Phase.ACCOUNTING)
    profile.bus_wiring_seconds = time.perf_counter() - wiring_start  # simlint: ignore[D002]

    pregen_start = time.perf_counter()  # simlint: ignore[D002]
    if traces is not None:
        trace_names = [trace.host_id for trace in traces]
        if trace_names != names:
            raise ValueError("traces must parallel hosts (same ids, same order)")
        for trace in traces:
            injector.attach_trace(trace, node_id=node_id_of[trace.host_id])
    elif config.pregen_horizon is not None:
        # Bulk pregeneration: every host's episode prefix is materialised
        # up front and injected ready-made, so attach_host never constructs
        # a process or suspends a generator frame. Within the horizon this
        # is byte-identical to per-host lazy sampling (streams keyed by
        # (seed, host name) alone); prefixes arrive burn-in-shifted.
        prefixes = pregenerate_prefixes(
            hosts, rng, config.pregen_horizon, burn_in=config.stationary_burn_in
        )
        for host, prefix in zip(hosts, prefixes, strict=True):
            injector.attach_host(
                host, node_id=node_id_of[host.host_id], episodes=prefix
            )
    else:
        for host in hosts:
            # The int id keys the injector's runtime state; the RNG
            # substream stays keyed by *name* inside attach_host, so
            # failure realisations are identity-representation-invariant.
            injector.attach_host(
                host,
                burn_in=config.stationary_burn_in,
                node_id=node_id_of[host.host_id],
            )
    profile.pregen_seconds = time.perf_counter() - pregen_start  # simlint: ignore[D002]

    if config.permanent_failure_rate > 0.0:
        # Keyed per host so one host's draw never perturbs another's —
        # the same property the interruption streams have.
        for host in hosts:
            perm_rng = rng.substream("permanent", host.host_id)
            if perm_rng.random() < config.permanent_failure_rate:
                injector.schedule_permanent_failure(
                    node_id_of[host.host_id],
                    at_time=perm_rng.uniform(0.0, config.permanent_failure_horizon),
                )

    # Cross-layer invariant auditing. The environment variable lets CI (and
    # local debugging) force strict audits over any existing configuration
    # without plumbing a flag through every entry point.
    audit_mode = env_override("REPRO_AUDIT", config.audit, AUDIT_MODES)
    auditor: Optional[InvariantAuditor] = None
    if audit_mode != "off":
        auditor = InvariantAuditor(
            sim,
            bus,
            namenode=namenode,
            injector=injector,
            network=network,
            trackers=trackers,
            metrics=metrics,
            jobtracker=jobtracker,
            durability=durability,
            mode=audit_mode,
            interval=config.audit_interval,
        )

    # -- service registry (registration order is start order; stop is the
    # reverse, so consumers always stop before the producers they read) ---------
    services = ServiceRegistry()
    services.register(network)
    services.register(injector)
    services.register(pipeline)
    # Bulk-registered: per-node service names resolve lazily (see
    # ServiceRegistry.register_bulk) and the dicts iterate in host order.
    services.register_bulk(datanodes.values())
    if heartbeats is not None:
        services.register(heartbeats)
    if detector is not None:
        services.register(detector)
    if monitor is not None:
        services.register(monitor)
    services.register(jobtracker)
    services.register_bulk(trackers.values())
    if mitigation is not None:
        # Before the chaos engine: a window already armed at start must
        # find its responder subscribed and started.
        services.register(mitigation)
    if chaos is not None:
        # After the injector and every reactor: starting the engine arms
        # the campaign against a fully attached node population.
        services.register(chaos)
    if tracer is not None:
        services.register(tracer)
    if auditor is not None:
        # Registered last so it stops FIRST: the final teardown audit must
        # see live cluster state, before trackers kill their attempts.
        services.register(auditor)

    client = DfsClient(
        namenode,
        rng.substream("client"),
        default_block_size=config.block_size_bytes,
        default_gamma=default_gamma,
    )
    cluster = Cluster(
        config=config,
        hosts=hosts,
        sim=sim,
        rng=rng,
        network=network,
        injector=injector,
        namenode=namenode,
        trackers=trackers,
        metrics=metrics,
        jobtracker=jobtracker,
        heartbeats=heartbeats,
        client=client,
        durability=durability,
        monitor=monitor,
        bus=bus,
        services=services,
        detector=detector,
        tracer=tracer,
        auditor=auditor,
        chaos=chaos,
        mitigation=mitigation,
        ids=ids,
        build_profile=profile,
    )
    cluster.start()
    profile.total_seconds = time.perf_counter() - build_start  # simlint: ignore[D002]
    return cluster
