"""Cross-layer invariant auditing: the simulator's runtime self-checks.

The reproduction's results rest on two kinds of consistency that nothing
else verifies end-to-end: *conservation* (the Figure 5 slot-time
decomposition must account for every slot-second exactly) and *agreement*
(the NameNode's replica map, the DataNodes' physical disks, the failure
injector's ground truth, and the JobTracker's attempt state must tell one
coherent story between events). Silent divergence in either is invisible
in ordinary test assertions — a double-counted interval just shifts the
overhead bars; a stale replica-map entry just changes a trajectory.

:class:`InvariantAuditor` is a :class:`~repro.runtime.services.Service`
that observes the cluster through a bus tap (pure observation: it never
publishes, never mutates, and never draws randomness, so attaching it
cannot change a seeded trajectory) and sweeps ~a dozen invariants at a
configurable cadence plus mandatorily at teardown:

* **replica-map-physical** — every (block, holder) in the location map is
  physically present on that DataNode, except holders whose disk a
  permanent failure wiped but whose purge has not fired yet (the stale
  metadata window is a modelled feature, not a bug).
* **orphan-replica** — every physically stored block is registered in the
  location map with that node as a holder.
* **lost-block-has-replicas** — a block announced via ``BlockLost`` has
  zero surviving physical replicas among its recorded holders.
* **unannounced-block-loss** — a block with zero surviving physical
  replicas was announced (catches a dropped ``BlockLost`` publication).
* **liveness-disagreement** — TaskTracker, DataNode, and injector agree on
  each node's physical up/down state between events.
* **purged-node-believed-live** — a node erased from the location map
  (``NodePurged``) is never believed alive again.
* **attempt-on-down-node** / **slot-overcommit** / **live-attempt-task-state**
  — no live attempt on a physically-down (or believed-dead *and* down)
  node, never more live attempts than slots, and every live attempt's task
  is RUNNING. (A believed-dead but physically-up node may legitimately run
  attempts: under heartbeat detection a returned node asks for work before
  its next beat flips the belief.)
* **link-capacity** — flow rates sum to at most capacity on *every*
  directed link of every transfer's path — host access links and
  oversubscribed fabric trunks alike — under fair sharing (the simple
  model oversubscribes by design and is exempt).
* **event-time-monotonic** / **event-time-behind-clock** /
  **event-heap-time** — published event times never regress, and the event
  heap's next event is never in the simulator's past.
* **interruption-count** / **node-return-count** / **permanent-failure-count**
  / **lost-block-count** — metrics counters equal the tap-observed event
  counts.
* **failed-attempt-count** / **speculative-attempt-count** /
  **migration-undercount** — attempt-level counters equal (or, for
  migrations, at least cover) what the job's attempt records show.
* **conservation-residual** — once every observed job has finished,
  ``slots * sum(makespans)`` equals the useful + rework + recovery +
  migration + duplicate + idle bins within float tolerance.

Violations **raise** :class:`InvariantViolationError` in ``strict`` mode
(tests, golden scenarios, CI) or **accumulate** into the JSON-exportable
:class:`AuditReport` in ``report`` mode (long experiment sweeps, where one
bad cell should not kill the batch).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Set, Tuple

from repro.core.ids import NodeId
from repro.simulator.engine import EventHandle, Simulator
from repro.simulator.events import (
    BlockLost,
    Event,
    EventBus,
    NodeDown,
    NodePurged,
    NodeUp,
    PermanentFailure,
    Phase,
    TaskStateChange,
)
from repro.simulator.failures import FailureInjector
from repro.simulator.metrics import DurabilityMetrics, MapPhaseMetrics
from repro.simulator.network import Network

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hdfs.namenode import NameNode
    from repro.mapreduce.job import MapJob
    from repro.mapreduce.jobtracker import JobTracker
    from repro.mapreduce.tasktracker import TaskTracker

#: Valid audit modes, also used by ClusterConfig validation.
AUDIT_MODES = ("off", "report", "strict")

#: Slack for same-instant float timestamps in the monotonicity checks.
_TIME_EPSILON = 1e-9

#: Relative headroom for per-link rate sums (max-min allocation arithmetic).
_RATE_EPSILON = 1e-9


@dataclass(frozen=True)
class Violation:
    """One observed invariant breach."""

    invariant: str
    time: float
    message: str

    def to_jsonable(self) -> Dict[str, object]:
        return {"invariant": self.invariant, "time": self.time, "message": self.message}


class InvariantViolationError(AssertionError):
    """Raised in strict mode when an audit finds violations."""

    def __init__(self, violations: List[Violation]) -> None:
        self.violations = list(violations)
        lines = [f"{len(violations)} invariant violation(s):"]
        lines += [f"  [{v.invariant}] t={v.time:g}: {v.message}" for v in violations[:10]]
        if len(violations) > 10:
            lines.append(f"  ... and {len(violations) - 10} more")
        super().__init__("\n".join(lines))


@dataclass
class AuditReport:
    """Structured outcome of a run's audits (report mode accumulates here)."""

    mode: str = "report"
    audits_run: int = 0
    events_observed: int = 0
    final_audit_run: bool = False
    violations: List[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def counts_by_invariant(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for violation in self.violations:
            counts[violation.invariant] = counts.get(violation.invariant, 0) + 1
        return counts

    def to_jsonable(self) -> Dict[str, object]:
        return {
            "mode": self.mode,
            "audits_run": self.audits_run,
            "events_observed": self.events_observed,
            "final_audit_run": self.final_audit_run,
            "ok": self.ok,
            "violation_counts": self.counts_by_invariant(),
            "violations": [v.to_jsonable() for v in self.violations],
        }

    def export_json(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_jsonable(), handle, indent=2, sort_keys=True)
            handle.write("\n")


class InvariantAuditor:
    """Service that audits cross-layer invariants over a wired cluster.

    Construct it with the same objects ``build_cluster`` wires together and
    register it *last* in the service registry: registries stop services in
    reverse registration order, so the mandatory teardown audit observes
    the cluster before trackers kill their live attempts.
    """

    DEFAULT_INTERVAL = 25.0
    RESIDUAL_REL_TOL = 1e-9
    RESIDUAL_ABS_TOL = 1e-6

    def __init__(
        self,
        sim: Simulator,
        bus: EventBus,
        namenode: "NameNode",
        injector: FailureInjector,
        network: Network,
        trackers: Mapping[str, "TaskTracker"],
        metrics: MapPhaseMetrics,
        jobtracker: Optional["JobTracker"] = None,
        durability: Optional[DurabilityMetrics] = None,
        mode: str = "report",
        interval: Optional[float] = DEFAULT_INTERVAL,
        residual_rel_tol: float = RESIDUAL_REL_TOL,
        residual_abs_tol: float = RESIDUAL_ABS_TOL,
    ) -> None:
        if mode not in AUDIT_MODES or mode == "off":
            raise ValueError(f"mode must be 'report' or 'strict', got {mode!r}")
        if interval is not None and interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self._sim = sim
        self._bus = bus
        self._namenode = namenode
        self._injector = injector
        self._network = network
        self._trackers = dict(sorted(trackers.items()))
        self._metrics = metrics
        self._jobtracker = jobtracker
        self._durability = durability
        self._mode = mode
        self._interval = interval
        self._residual_rel_tol = residual_rel_tol
        self._residual_abs_tol = residual_abs_tol

        self._report = AuditReport(mode=mode)
        #: Violations detected inside the tap, surfaced at the next audit.
        self._pending: List[Violation] = []
        self._last_event_time = -math.inf
        self._node_down_count = 0
        self._node_up_count = 0
        self._permanent_count = 0
        self._lost_announced: Set[str] = set()
        self._purged: Set[str] = set()
        self._jobs_seen: List["MapJob"] = []
        self._job_ids_seen: Set[int] = set()
        self._audit_event: Optional[EventHandle] = None
        self._stopped = False
        bus.add_tap(self._tap)

    # -- observation (bus tap) --------------------------------------------------

    @property
    def report(self) -> AuditReport:
        return self._report

    @property
    def mode(self) -> str:
        return self._mode

    def _tap(self, event: Event, phases: Tuple[Phase, ...]) -> None:
        self._report.events_observed += 1
        if event.time < self._last_event_time - _TIME_EPSILON:
            self._pending.append(
                Violation(
                    "event-time-monotonic",
                    self._sim.now,
                    f"{type(event).__name__} at t={event.time:g} after an event "
                    f"at t={self._last_event_time:g}",
                )
            )
        if event.time < self._sim.now - _TIME_EPSILON:
            self._pending.append(
                Violation(
                    "event-time-behind-clock",
                    self._sim.now,
                    f"{type(event).__name__} carries t={event.time:g} but the "
                    f"clock reads {self._sim.now:g}",
                )
            )
        if event.time > self._last_event_time:
            self._last_event_time = event.time
        if isinstance(event, NodeDown):
            self._node_down_count += 1
        elif isinstance(event, NodeUp):
            self._node_up_count += 1
        elif isinstance(event, PermanentFailure):
            self._permanent_count += 1
        elif isinstance(event, NodePurged):
            self._purged.add(event.node_id)
        elif isinstance(event, BlockLost):
            self._lost_announced.add(event.block_id)
        elif isinstance(event, TaskStateChange):
            self._note_current_job()

    def _note_current_job(self) -> None:
        if self._jobtracker is None:
            return
        job = self._jobtracker.job
        if job is not None and id(job) not in self._job_ids_seen:
            self._job_ids_seen.add(id(job))
            self._jobs_seen.append(job)

    # -- the audit ---------------------------------------------------------------

    def audit(self, final: bool = False) -> List[Violation]:
        """Sweep every invariant once; returns (and records) violations.

        In strict mode a non-empty sweep raises
        :class:`InvariantViolationError` after recording.
        """
        self._note_current_job()
        found: List[Violation] = list(self._pending)
        self._pending.clear()
        self._check_storage(found)
        self._check_liveness(found)
        self._check_attempts(found)
        self._check_network(found)
        self._check_heap(found)
        self._check_counters(found)
        self._check_conservation(found)
        self._report.audits_run += 1
        if final:
            self._report.final_audit_run = True
        self._report.violations.extend(found)
        if found and self._mode == "strict":
            raise InvariantViolationError(found)
        return found

    # -- individual invariant families -------------------------------------------

    def _violate(self, found: List[Violation], invariant: str, message: str) -> None:
        found.append(Violation(invariant, self._sim.now, message))

    def _is_down_physical(self, node_id: NodeId) -> bool:
        try:
            return self._injector.is_down(node_id)
        except KeyError:
            return False

    def _is_permanently_failed(self, node_id: NodeId) -> bool:
        try:
            return self._injector.is_permanently_failed(node_id)
        except KeyError:
            return False

    def _check_storage(self, found: List[Violation]) -> None:
        namenode = self._namenode
        snapshot = namenode.location_snapshot()
        for block_id in sorted(snapshot):
            for holder in sorted(snapshot[block_id]):
                if namenode.datanode(holder).has_block(block_id):
                    continue
                if self._is_permanently_failed(holder):
                    continue  # wiped-but-unpurged stale-metadata window
                self._violate(
                    found,
                    "replica-map-physical",
                    f"location map lists {holder} for {block_id} but the "
                    f"DataNode does not hold it",
                )
        for node_id in namenode.datanode_ids:
            for block_id in sorted(namenode.blocks_on(node_id)):
                if node_id not in snapshot.get(block_id, set()):
                    self._violate(
                        found,
                        "orphan-replica",
                        f"{node_id} physically stores {block_id} but the "
                        f"location map does not list it as a holder",
                    )
        for block_id in sorted(self._lost_announced):
            holders = snapshot.get(block_id)
            if holders is None:
                continue  # file deleted since the loss
            survivors = [h for h in holders if namenode.datanode(h).has_block(block_id)]
            if survivors:
                self._violate(
                    found,
                    "lost-block-has-replicas",
                    f"{block_id} was announced lost but {sorted(survivors)} "
                    f"still physically hold it",
                )
        for block_id in sorted(snapshot):
            if block_id in self._lost_announced:
                continue
            holders = snapshot[block_id]
            physically_held = any(
                namenode.datanode(h).has_block(block_id) for h in holders
            )
            if not physically_held:
                self._violate(
                    found,
                    "unannounced-block-loss",
                    f"{block_id} has zero surviving physical replicas but no "
                    f"BlockLost was published",
                )

    def _check_liveness(self, found: List[Violation]) -> None:
        namenode = self._namenode
        for node_id, tracker in self._trackers.items():
            physically_up = not self._is_down_physical(node_id)
            if tracker.is_up != physically_up:
                self._violate(
                    found,
                    "liveness-disagreement",
                    f"TaskTracker {node_id} is_up={tracker.is_up} but the "
                    f"injector says up={physically_up}",
                )
            try:
                datanode_up = namenode.datanode(node_id).is_up
            except KeyError:
                continue
            if datanode_up != physically_up:
                self._violate(
                    found,
                    "liveness-disagreement",
                    f"DataNode {node_id} is_up={datanode_up} but the "
                    f"injector says up={physically_up}",
                )
        for node_id in sorted(self._purged):
            try:
                believed_live = namenode.is_live(node_id)
            except KeyError:
                continue
            if believed_live:
                self._violate(
                    found,
                    "purged-node-believed-live",
                    f"{node_id} was purged from the location map but the "
                    f"NameNode believes it alive",
                )

    def _check_attempts(self, found: List[Violation]) -> None:
        from repro.mapreduce.job import TaskState

        namenode = self._namenode
        for node_id, tracker in self._trackers.items():
            live = tracker.live_attempts()
            if not live:
                continue
            if len(live) > tracker.slots:
                self._violate(
                    found,
                    "slot-overcommit",
                    f"{node_id} runs {len(live)} live attempts on "
                    f"{tracker.slots} slot(s)",
                )
            physically_down = self._is_down_physical(node_id)
            if not tracker.is_up or physically_down:
                self._violate(
                    found,
                    "attempt-on-down-node",
                    f"{node_id} (tracker up={tracker.is_up}, physically "
                    f"down={physically_down}) holds {len(live)} live attempt(s)",
                )
            try:
                believed_live = namenode.is_live(node_id)
            except KeyError:
                believed_live = True
            if not believed_live and physically_down:
                self._violate(
                    found,
                    "attempt-on-down-node",
                    f"{node_id} is believed dead and physically down yet "
                    f"holds {len(live)} live attempt(s)",
                )
            for attempt in live:
                if attempt.node_id != node_id:
                    self._violate(
                        found,
                        "live-attempt-task-state",
                        f"{attempt.attempt_id} lives on {node_id} but claims "
                        f"node {attempt.node_id}",
                    )
                if attempt.task.state is not TaskState.RUNNING:
                    self._violate(
                        found,
                        "live-attempt-task-state",
                        f"{attempt.attempt_id} is live but its task is "
                        f"{attempt.task.state.value}",
                    )

    def _check_network(self, found: List[Violation]) -> None:
        network = self._network
        if not network.fair_sharing:
            return  # the simple model oversubscribes links by design
        # Sum rates over every directed link on every transfer's path, so
        # oversubscribed fabric trunks (ToR/aggregation) are audited with
        # exactly the same rule as host access links.
        link_sums: Dict[Tuple[str, object], float] = {}
        for transfer in network.active_transfers:
            for link in transfer.path:
                link_sums[link] = link_sums.get(link, 0.0) + transfer.rate
        for link in sorted(link_sums, key=lambda key: (key[0], str(key[1]))):
            capacity = network.link_capacity(link)
            if link_sums[link] > capacity * (1.0 + _RATE_EPSILON) + 1e-6:
                self._violate(
                    found,
                    "link-capacity",
                    f"link {link[0]}:{link[1]}: flow rates sum to "
                    f"{link_sums[link]:.6g} B/s > capacity {capacity:.6g} B/s",
                )

    def _check_heap(self, found: List[Violation]) -> None:
        next_time = self._sim.peek_next_time()
        if next_time is not None and next_time < self._sim.now - _TIME_EPSILON:
            self._violate(
                found,
                "event-heap-time",
                f"next pending event at t={next_time:g} is before the clock "
                f"({self._sim.now:g})",
            )

    def _check_counters(self, found: List[Violation]) -> None:
        metrics = self._metrics
        if metrics.interruptions != self._node_down_count:
            self._violate(
                found,
                "interruption-count",
                f"metrics counted {metrics.interruptions} interruptions but "
                f"{self._node_down_count} NodeDown events were published",
            )
        if metrics.node_returns != self._node_up_count:
            self._violate(
                found,
                "node-return-count",
                f"metrics counted {metrics.node_returns} node returns but "
                f"{self._node_up_count} NodeUp events were published",
            )
        durability = self._durability
        if durability is not None:
            if durability.permanent_failures != self._permanent_count:
                self._violate(
                    found,
                    "permanent-failure-count",
                    f"durability counted {durability.permanent_failures} "
                    f"permanent failures but {self._permanent_count} "
                    f"PermanentFailure events were published",
                )
            if durability.blocks_lost != len(self._lost_announced):
                self._violate(
                    found,
                    "lost-block-count",
                    f"durability counted {durability.blocks_lost} lost blocks "
                    f"but {len(self._lost_announced)} BlockLost events were "
                    f"published",
                )
        self._check_attempt_counters(found)

    def _check_attempt_counters(self, found: List[Violation]) -> None:
        from repro.mapreduce.job import AttemptState

        if not self._jobs_seen:
            return
        metrics = self._metrics
        failed_exec = 0
        speculative = 0
        for job in self._jobs_seen:
            for attempt in job.attempts:
                if attempt.speculative:
                    speculative += 1
                if attempt.state is AttemptState.FAILED and attempt.exec_started is not None:
                    failed_exec += 1
        if metrics.failed_attempts != failed_exec:
            self._violate(
                found,
                "failed-attempt-count",
                f"metrics counted {metrics.failed_attempts} failed (rework) "
                f"attempts but job records show {failed_exec}",
            )
        if metrics.speculative_attempts != speculative:
            self._violate(
                found,
                "speculative-attempt-count",
                f"metrics counted {metrics.speculative_attempts} speculative "
                f"attempts but job records show {speculative}",
            )
        if metrics.migrations < metrics.remote_tasks:
            self._violate(
                found,
                "migration-undercount",
                f"{metrics.remote_tasks} remote completions but only "
                f"{metrics.migrations} migration charges were recorded",
            )

    def _check_conservation(self, found: List[Violation]) -> None:
        jobs = self._jobs_seen
        if not jobs or any(job.finished_at is None for job in jobs):
            return  # only checkable once every observed job has finished
        metrics = self._metrics
        slots = sum(tracker.slots for tracker in self._trackers.values())
        span = sum(job.makespan for job in jobs)
        slot_time = slots * span
        accounted = (
            metrics.useful_time
            + metrics.rework_time
            + metrics.recovery_time
            + metrics.migration_time
            + metrics.duplicate_time
            + metrics.idle_time
        )
        residual = slot_time - accounted
        tolerance = self._residual_rel_tol * max(slot_time, 1.0) + self._residual_abs_tol
        if abs(residual) > tolerance:
            self._violate(
                found,
                "conservation-residual",
                f"slot time {slot_time:.6f} vs accounted {accounted:.6f}: "
                f"residual {residual:.3e} exceeds tolerance {tolerance:.3e}",
            )

    # -- service lifecycle --------------------------------------------------------

    def start(self) -> None:
        """Arm the periodic audit (teardown still audits when disabled).

        Idempotent: with a timer already queued, or once stopped, a
        second start arms nothing.
        """
        if self._interval is not None and self._audit_event is None and not self._stopped:
            self._arm()

    def stop(self) -> None:
        """Disarm the cadence and run the mandatory teardown audit."""
        if self._stopped:
            return
        self._stopped = True
        if self._audit_event is not None:
            self._audit_event.cancel()
            self._audit_event = None
        self.audit(final=True)

    # -- internals ----------------------------------------------------------------

    def _arm(self) -> None:
        assert self._interval is not None
        self._audit_event = self._sim.schedule(
            self._interval, self._on_timer, label="invariant-audit"
        )

    def _on_timer(self) -> None:
        self._audit_event = None
        if self._stopped:
            return
        self.audit()
        self._arm()


__all__ = [
    "AUDIT_MODES",
    "AuditReport",
    "InvariantAuditor",
    "InvariantViolationError",
    "Violation",
]
