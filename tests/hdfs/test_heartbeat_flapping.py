"""Heartbeat behaviour under rapid flapping (the emulation's regime)."""

import pytest

from repro.hdfs.datanode import DataNode
from repro.hdfs.heartbeat import HeartbeatService
from repro.hdfs.namenode import NameNode
from repro.simulator.engine import Simulator
from repro.simulator.events import (
    NodeDeclaredDead,
    NodeDown,
    NodeReturned,
    NodeUp,
    PartitionHealed,
    PartitionStarted,
    Phase,
)


def setup(interval=3.0, misses=3):
    sim = Simulator()
    nn = NameNode()
    nn.register_datanode(DataNode("n0"))
    hb = HeartbeatService(sim, nn, interval=interval, miss_threshold=misses)
    hb.track("n0")
    return sim, nn, hb


def at(sim, handler, event):
    """Deliver ``event`` to the bus handler ``handler`` at the event's time."""
    sim.schedule_at(event.time, lambda: handler(event))


def partition(sim, hb, partition_id, start, end, heartbeats_blocked=True):
    """Put n0 in a chaos partition over ``[start, end)``."""
    members = ("n0",)
    at(
        sim,
        hb.handle_partition_started,
        PartitionStarted(start, partition_id, members, heartbeats_blocked),
    )
    at(sim, hb.handle_partition_healed, PartitionHealed(end, partition_id, members))


def record_beliefs(hb):
    """("dead"/"back", time) for each belief change ``hb`` publishes."""
    transitions = []
    for event_type, kind in ((NodeDeclaredDead, "dead"), (NodeReturned, "back")):
        hb.bus.subscribe(
            event_type,
            lambda e, kind=kind: transitions.append((kind, e.time)),
            Phase.ACCOUNTING,
        )
    return transitions


class TestFlapping:
    def test_sub_timeout_flaps_invisible(self):
        # Table 2's MTBI 10s / recovery 4s: every outage is shorter than
        # the 9s timeout, so the NameNode believes the node live forever —
        # exactly what happened on the real testbed with Hadoop's long
        # timeouts.
        sim, nn, hb = setup()
        t = 5.0
        while t < 500.0:
            down_at, up_at = t, t + 4.0
            at(sim, hb.handle_node_down, NodeDown(time=down_at, node_id="n0"))
            at(sim, hb.handle_node_up, NodeUp(time=up_at, node_id="n0"))
            t += 10.0
        transitions = record_beliefs(hb)
        sim.run(until=520.0)
        assert transitions == []
        assert nn.is_live("n0")

    def test_estimator_learns_from_flapping(self):
        sim, nn, hb = setup()
        t = 5.0
        while t < 500.0:
            at(sim, hb.handle_node_down, NodeDown(time=t, node_id="n0"))
            at(sim, hb.handle_node_up, NodeUp(time=t + 4.0, node_id="n0"))
            t += 10.0
        sim.run(until=520.0)
        est = nn.predictor.estimate("n0")
        # ~50 episodes of ~4s downtime observed (beat-gap quantised).
        assert est.observations >= 40
        assert est.recovery_mean == pytest.approx(4.0, abs=2.5)
        assert est.mtbi < 60.0

    def test_long_outage_death_and_resurrection_cycle(self):
        sim, nn, hb = setup()
        transitions = record_beliefs(hb)
        for start in (20.0, 100.0):
            at(sim, hb.handle_node_down, NodeDown(time=start, node_id="n0"))
            at(sim, hb.handle_node_up, NodeUp(time=start + 40.0, node_id="n0"))
        sim.run(until=200.0)
        kinds = [k for k, _t in transitions]
        assert kinds == ["dead", "back", "dead", "back"]

    def test_down_at_time_zero(self):
        sim, nn, hb = setup()
        hb.handle_node_down(NodeDown(time=0.0, node_id="n0"))
        sim.run(until=30.0)
        assert not nn.is_live("n0")
        hb.handle_node_up(NodeUp(time=sim.now, node_id="n0"))
        assert nn.is_live("n0")


class TestIdempotentTransitions:
    def test_double_down_keeps_original_down_since(self):
        # Overlapping chaos outages deliver two downs; the downtime
        # observation must span from the *first* one.
        sim, nn, hb = setup()
        at(sim, hb.handle_node_down, NodeDown(time=10.0, node_id="n0"))
        at(sim, hb.handle_node_down, NodeDown(time=15.0, node_id="n0"))
        at(sim, hb.handle_node_up, NodeUp(time=30.0, node_id="n0"))
        sim.run(until=50.0)
        est = nn.predictor.estimate("n0")
        assert est.recovery_mean == pytest.approx(20.0, rel=1e-3)

    def test_double_up_publishes_one_return(self):
        sim, nn, hb = setup()
        transitions = record_beliefs(hb)
        at(sim, hb.handle_node_down, NodeDown(time=10.0, node_id="n0"))
        at(sim, hb.handle_node_up, NodeUp(time=25.0, node_id="n0"))
        at(sim, hb.handle_node_up, NodeUp(time=25.0, node_id="n0"))
        sim.run(until=40.0)
        assert [t for kind, t in transitions if kind == "back"] == [25.0]
        assert nn.is_live("n0")


class TestSuppression:
    """Beats lost in transit: the collector's belief diverges from truth."""

    def test_suppressed_node_declared_dead_while_physically_up(self):
        sim, nn, hb = setup()
        transitions = record_beliefs(hb)
        partition(sim, hb, "p1", 5.0, 20.0)
        sim.run(until=40.0)
        # Last beat lands at t=3; silence crosses the 9s timeout at t=12.
        # The node never physically went down — the heal lets it beat
        # immediately and belief snaps back.
        assert transitions == [("dead", 12.0), ("back", 20.0)]

    def test_overlapping_suppressions_nest(self):
        sim, nn, hb = setup()
        transitions = record_beliefs(hb)
        partition(sim, hb, "p1", 5.0, 20.0)
        partition(sim, hb, "p2", 6.0, 30.0)
        sim.run(until=40.0)
        assert transitions == [("dead", 12.0), ("back", 30.0)]

    def test_non_blocking_heal_leaves_a_blocking_partition_in_force(self):
        # n0 sits in p1, which blocks heartbeats, over [10, 100), and in
        # p2, which does not, over [20, 30). p2's heal must not let n0's
        # beats through while p1 still drops them.
        sim, nn, hb = setup()
        transitions = record_beliefs(hb)
        partition(sim, hb, "p1", 10.0, 100.0)
        partition(sim, hb, "p2", 20.0, 30.0, heartbeats_blocked=False)
        sim.run(until=90.0)
        assert transitions == [("dead", 18.0)]
        assert not nn.is_live("n0")
        sim.run(until=110.0)
        assert transitions == [("dead", 18.0), ("back", 100.0)]

    def test_unsuppress_while_physically_down_waits_for_return(self):
        sim, nn, hb = setup()
        transitions = record_beliefs(hb)
        partition(sim, hb, "p1", 5.0, 20.0)
        at(sim, hb.handle_node_down, NodeDown(time=8.0, node_id="n0"))
        at(sim, hb.handle_node_up, NodeUp(time=25.0, node_id="n0"))
        sim.run(until=40.0)
        assert transitions == [("dead", 12.0), ("back", 25.0)]
        # The beat gap reveals the physical downtime only.
        assert nn.predictor.estimate("n0").recovery_mean == pytest.approx(17.0, rel=1e-3)

    def test_suppress_untracked_node_is_noop(self):
        sim, nn, hb = setup()
        hb.handle_partition_started(PartitionStarted(0.0, "p1", ("ghost",), True))
        hb.handle_partition_healed(PartitionHealed(0.0, "p1", ("ghost",)))
        sim.run(until=10.0)
        assert nn.is_live("n0")
