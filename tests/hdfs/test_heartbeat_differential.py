"""The reserved-sequence watchdog against the eager one it replaced.

:class:`EagerHeartbeatService` is the earlier heartbeat service kept
verbatim in its scheduling logic: every beat scheduled a fresh watchdog at
``last_beat + timeout`` and cancelled the previous one. The live service
reserves that watchdog's sequence number instead and queues it only once
the beats stop. Driven by one scripted schedule, the two must publish the
same belief changes at the same times in the same order, fire the same
events in the same order, and leave every node with the same estimate.
"""

from typing import Dict, List, Optional, Set, Tuple

import pytest

from repro.hdfs.datanode import DataNode
from repro.hdfs.heartbeat import HeartbeatService
from repro.hdfs.namenode import NameNode
from repro.simulator.engine import EventHandle, Simulator
from repro.simulator.events import (
    EventBus,
    NodeDeclaredDead,
    NodeDown,
    NodeReturned,
    NodeUp,
    PartitionHealed,
    PartitionStarted,
    Phase,
)
from repro.util.validation import check_positive


class EagerHeartbeatService:
    """The eager-watchdog heartbeat service (one watchdog armed per beat)."""

    def __init__(self, sim, namenode, interval=3.0, miss_threshold=3, bus=None):
        self._sim = sim
        self._namenode = namenode
        self._bus = bus if bus is not None else EventBus()
        self._interval = check_positive("interval", interval)
        self._miss_threshold = miss_threshold
        self._last_beat: Dict[str, float] = {}
        self._beat_events: Dict[str, Optional[EventHandle]] = {}
        self._watchdogs: Dict[str, Optional[EventHandle]] = {}
        self._down_since: Dict[str, Optional[float]] = {}
        self._is_up: Dict[str, bool] = {}
        self._suppress_counts: Dict[str, int] = {}
        self._blocking_partitions: Set[str] = set()

    @property
    def bus(self):
        return self._bus

    @property
    def timeout(self):
        return self._interval * self._miss_threshold

    def track(self, node_id):
        self._is_up[node_id] = True
        self._down_since[node_id] = None
        self._last_beat[node_id] = self._sim.now
        self._beat_events[node_id] = None
        self._watchdogs[node_id] = None
        self._schedule_beat(node_id)
        self._arm_watchdog(node_id)

    def untrack(self, node_id):
        if node_id not in self._is_up:
            return
        for events in (self._beat_events, self._watchdogs):
            event = events.pop(node_id, None)
            if event is not None:
                event.cancel()
        del self._is_up[node_id]
        del self._down_since[node_id]
        del self._last_beat[node_id]
        self._suppress_counts.pop(node_id, None)

    def handle_node_down(self, event):
        node_id = event.node_id
        if node_id not in self._is_up or not self._is_up[node_id]:
            return
        self._is_up[node_id] = False
        self._down_since[node_id] = event.time
        beat = self._beat_events.get(node_id)
        if beat is not None:
            beat.cancel()
            self._beat_events[node_id] = None

    def handle_node_up(self, event):
        node_id = event.node_id
        if node_id not in self._is_up or self._is_up[node_id]:
            return
        self._is_up[node_id] = True
        self._beat(node_id, returning=True)

    def handle_partition_started(self, event):
        if not event.heartbeats_blocked:
            return
        self._blocking_partitions.add(event.partition_id)
        for node_id in event.members:
            if node_id not in self._is_up:
                continue
            count = self._suppress_counts.get(node_id, 0)
            self._suppress_counts[node_id] = count + 1
            if count:
                continue
            beat = self._beat_events.get(node_id)
            if beat is not None:
                beat.cancel()
                self._beat_events[node_id] = None

    def handle_partition_healed(self, event):
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

    def _schedule_beat(self, node_id):
        self._beat_events[node_id] = self._sim.schedule(
            self._interval, lambda: self._beat(node_id), label=f"beat:{node_id}"
        )

    def _beat(self, node_id, returning=False):
        if not self._is_up.get(node_id, False):
            return
        if self._suppress_counts.get(node_id):
            return
        now = self._sim.now
        predictor = self._namenode.predictor
        down_since = self._down_since[node_id]
        if returning and down_since is not None:
            predictor.observe_downtime(node_id, now - down_since)
            self._down_since[node_id] = None
        else:
            predictor.observe_uptime(node_id, now - self._last_beat[node_id])
        self._last_beat[node_id] = now
        if not self._namenode.is_live(node_id):
            self._namenode.mark_alive(node_id)
            self._bus.publish(NodeReturned(time=now, node_id=node_id))
        self._schedule_beat(node_id)
        self._arm_watchdog(node_id)

    def _arm_watchdog(self, node_id):
        old = self._watchdogs.get(node_id)
        if old is not None:
            old.cancel()
        deadline = self._last_beat[node_id] + self.timeout
        self._watchdogs[node_id] = self._sim.schedule_at(
            deadline, lambda: self._check_timeout(node_id), label=f"watchdog:{node_id}"
        )

    def _check_timeout(self, node_id):
        if node_id not in self._is_up:
            return
        self._watchdogs[node_id] = None
        now = self._sim.now
        if now - self._last_beat[node_id] < self.timeout:
            return
        if self._namenode.is_live(node_id):
            self._namenode.mark_dead(node_id)
            self._bus.publish(NodeDeclaredDead(time=now, node_id=node_id))


class FiringLog(Simulator):
    """A simulator that records ``(time, label)`` of every event it fires.

    Every event enters through ``schedule_at`` (``schedule`` delegates to
    it) or ``schedule_reserved``, so wrapping both sees every event.
    """

    def __init__(self):
        super().__init__()
        self.fired: List[Tuple[float, str]] = []

    def _logged(self, action, label):
        def logged():
            self.fired.append((self.now, label))
            action()

        return logged

    def schedule_at(self, time, action, label=""):
        return super().schedule_at(time, self._logged(action, label), label)

    def schedule_reserved(self, time, seq, action, label=""):
        return super().schedule_reserved(time, seq, self._logged(action, label), label)


NODES = [f"n{i}" for i in range(6)]

#: (time, operation, node, partition id). All nodes are tracked at t = 0,
#: so they beat on one grid (multiples of the interval, in tracking order)
#: until a return moves a node off it. ``cut``/``heal`` start and heal a
#: heartbeat-blocking partition around the node.
SCRIPT = (
    # n1 goes silent before n0 but both last beat at t = 9: their
    # watchdogs share a deadline and must declare n0 first (beat order).
    (10.0, "down", "n1"),
    (11.0, "down", "n0"),
    (30.0, "up", "n0"),
    (31.5, "up", "n1"),
    # A heartbeat-blocking partition with a nested second cut.
    (20.0, "cut", "n2", "p1"),
    (22.0, "cut", "n2", "p2"),
    (25.0, "heal", "n2", "p1"),
    (35.0, "heal", "n2", "p2"),
    # A blip shorter than the timeout, then a down exactly on a beat
    # instant (the script event was queued before that beat).
    (40.0, "down", "n3"),
    (42.0, "up", "n3"),
    (51.0, "down", "n3"),
    (60.0, "up", "n3"),
    # Cut off while down, returning while still cut off.
    (70.0, "down", "n4"),
    (72.0, "cut", "n4", "p3"),
    (75.0, "up", "n4"),
    (90.0, "heal", "n4", "p3"),
    # Cut off first, then down inside the partition.
    (100.0, "cut", "n4", "p4"),
    (102.0, "down", "n4"),
    (104.0, "heal", "n4", "p4"),
    (110.0, "up", "n4"),
    # Idempotent repeats.
    (130.0, "down", "n3"),
    (131.0, "down", "n3"),
    (140.0, "up", "n3"),
    (141.0, "up", "n3"),
    # Untracked while its watchdog is queued.
    (150.0, "down", "n2"),
    (152.0, "untrack", "n2"),
    # Off the grid: a return at an instant whose deadline sum rounds down.
    (1.0, "down", "n5"),
    (28.52056516328516, "up", "n5"),
    (29.52056516328516, "down", "n5"),
    (160.0, "up", "n5"),
)


def script_action(service, when, op, node, *partition):
    """The call ``op`` makes on ``service`` at ``when``."""
    if op == "untrack":
        return lambda: service.untrack(node)
    if op == "down":
        handler, event = service.handle_node_down, NodeDown(when, node)
    elif op == "up":
        handler, event = service.handle_node_up, NodeUp(when, node)
    elif op == "cut":
        handler = service.handle_partition_started
        event = PartitionStarted(when, partition[0], (node,), heartbeats_blocked=True)
    else:
        handler = service.handle_partition_healed
        event = PartitionHealed(when, partition[0], (node,))
    return lambda: handler(event)


def drive(service_cls, miss_threshold):
    sim = FiringLog()
    namenode = NameNode()
    for node in NODES:
        namenode.register_datanode(DataNode(node))
    service = service_cls(sim, namenode, interval=3.0, miss_threshold=miss_threshold)
    published = []
    for event_type in (NodeDeclaredDead, NodeReturned):
        service.bus.subscribe(
            event_type,
            lambda e: published.append((e.time, type(e).__name__, e.node_id)),
            Phase.ACCOUNTING,
        )
    for step in SCRIPT:
        sim.schedule_at(step[0], script_action(service, *step))
    for node in NODES:
        service.track(node)
    sim.run(until=200.0)
    estimates = {node: namenode.predictor.estimate(node) for node in NODES}
    liveness = {node: namenode.is_live(node) for node in NODES}
    return published, sim.fired, estimates, liveness


@pytest.mark.parametrize("miss_threshold", [1, 3])
def test_matches_eager_watchdog(miss_threshold):
    eager = drive(EagerHeartbeatService, miss_threshold)
    reserved = drive(HeartbeatService, miss_threshold)
    published, fired, estimates, liveness = reserved
    assert published == eager[0]
    assert fired == eager[1]
    assert estimates == eager[2]
    assert liveness == eager[3]
    # The schedule exercises what it claims to.
    assert any(kind == "NodeDeclaredDead" for _, kind, _ in published)
    assert any(kind == "NodeReturned" for _, kind, _ in published)
    assert any(label.startswith("watchdog:") for _, label in fired)


@pytest.mark.parametrize("miss_threshold", [1, 3])
def test_simultaneous_watchdogs_declare_in_beat_order(miss_threshold):
    published = drive(HeartbeatService, miss_threshold)[0]
    deadline = 9.0 + 3.0 * miss_threshold
    deaths = [node for when, kind, node in published if kind == "NodeDeclaredDead"]
    same_instant = [
        node
        for when, kind, node in published
        if kind == "NodeDeclaredDead" and when == deadline and node in ("n0", "n1")
    ]
    assert same_instant == ["n0", "n1"]
    assert deaths.index("n0") < deaths.index("n1")


@pytest.mark.parametrize("miss_threshold", [1, 3])
def test_steady_node_holds_one_heap_entry(miss_threshold):
    count = 8
    sims = {}
    for service_cls in (HeartbeatService, EagerHeartbeatService):
        sim = Simulator()
        namenode = NameNode()
        service = service_cls(sim, namenode, interval=3.0, miss_threshold=miss_threshold)
        for i in range(count):
            namenode.register_datanode(DataNode(f"n{i}"))
            service.track(f"n{i}")
        sim.run(until=100.0)
        sims[service_cls] = sim
    reserved = sims[HeartbeatService]
    assert reserved.pending_events == count
    assert reserved.cancelled_pending == 0
    eager = sims[EagerHeartbeatService]
    assert eager.pending_events - eager.cancelled_pending == 2 * count
