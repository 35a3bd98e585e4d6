"""Heartbeat behaviour under rapid flapping (the emulation's regime)."""

import pytest

from repro.hdfs.datanode import DataNode
from repro.hdfs.heartbeat import HeartbeatService
from repro.hdfs.namenode import NameNode
from repro.simulator.engine import Simulator
from repro.simulator.events import NodeDeclaredDead, NodeReturned, Phase


def setup(interval=3.0, misses=3):
    sim = Simulator()
    nn = NameNode()
    nn.register_datanode(DataNode("n0"))
    hb = HeartbeatService(sim, nn, interval=interval, miss_threshold=misses)
    hb.track("n0")
    return sim, nn, hb


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
            sim.schedule_at(down_at, lambda d=down_at: hb.node_down("n0", d))
            sim.schedule_at(up_at, lambda u=up_at: hb.node_up("n0", u))
            t += 10.0
        transitions = record_beliefs(hb)
        sim.run(until=520.0)
        assert transitions == []
        assert nn.is_live("n0")

    def test_estimator_learns_from_flapping(self):
        sim, nn, hb = setup()
        t = 5.0
        while t < 500.0:
            sim.schedule_at(t, lambda d=t: hb.node_down("n0", d))
            sim.schedule_at(t + 4.0, lambda u=t + 4.0: hb.node_up("n0", u))
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
            sim.schedule_at(start, lambda s=start: hb.node_down("n0", s))
            sim.schedule_at(start + 40.0, lambda s=start: hb.node_up("n0", s + 40.0))
        sim.run(until=200.0)
        kinds = [k for k, _t in transitions]
        assert kinds == ["dead", "back", "dead", "back"]

    def test_down_at_time_zero(self):
        sim, nn, hb = setup()
        hb.node_down("n0", 0.0)
        sim.run(until=30.0)
        assert not nn.is_live("n0")
        hb.node_up("n0", sim.now)
        assert nn.is_live("n0")


class TestIdempotentTransitions:
    def test_double_down_keeps_original_down_since(self):
        # Overlapping chaos outages deliver two downs; the downtime
        # observation must span from the *first* one.
        sim, nn, hb = setup()
        sim.schedule_at(10.0, lambda: hb.node_down("n0", 10.0))
        sim.schedule_at(15.0, lambda: hb.node_down("n0", 15.0))
        sim.schedule_at(30.0, lambda: hb.node_up("n0", 30.0))
        sim.run(until=50.0)
        est = nn.predictor.estimate("n0")
        assert est.recovery_mean == pytest.approx(20.0, rel=1e-3)

    def test_double_up_publishes_one_return(self):
        sim, nn, hb = setup()
        transitions = record_beliefs(hb)
        sim.schedule_at(10.0, lambda: hb.node_down("n0", 10.0))
        sim.schedule_at(25.0, lambda: hb.node_up("n0", 25.0))
        sim.schedule_at(25.0, lambda: hb.node_up("n0", 25.0))
        sim.run(until=40.0)
        assert [t for kind, t in transitions if kind == "back"] == [25.0]
        assert nn.is_live("n0")


class TestSuppression:
    """Beats lost in transit: the collector's belief diverges from truth."""

    def test_suppressed_node_declared_dead_while_physically_up(self):
        sim, nn, hb = setup()
        transitions = record_beliefs(hb)
        sim.schedule_at(5.0, lambda: hb.suppress("n0"))
        sim.schedule_at(20.0, lambda: hb.unsuppress("n0"))
        sim.run(until=40.0)
        # Last beat lands at t=3; silence crosses the 9s timeout at t=12.
        # The node never physically went down — unsuppressing beats
        # immediately and belief snaps back.
        assert transitions == [("dead", 12.0), ("back", 20.0)]

    def test_overlapping_suppressions_nest(self):
        sim, nn, hb = setup()
        transitions = record_beliefs(hb)
        sim.schedule_at(5.0, lambda: hb.suppress("n0"))
        sim.schedule_at(6.0, lambda: hb.suppress("n0"))
        sim.schedule_at(20.0, lambda: hb.unsuppress("n0"))
        sim.schedule_at(30.0, lambda: hb.unsuppress("n0"))
        sim.run(until=40.0)
        assert transitions == [("dead", 12.0), ("back", 30.0)]

    def test_unsuppress_while_physically_down_waits_for_return(self):
        sim, nn, hb = setup()
        transitions = record_beliefs(hb)
        sim.schedule_at(5.0, lambda: hb.suppress("n0"))
        sim.schedule_at(8.0, lambda: hb.node_down("n0", 8.0))
        sim.schedule_at(20.0, lambda: hb.unsuppress("n0"))
        sim.schedule_at(25.0, lambda: hb.node_up("n0", 25.0))
        sim.run(until=40.0)
        assert transitions == [("dead", 12.0), ("back", 25.0)]
        # The beat gap reveals the physical downtime only.
        assert nn.predictor.estimate("n0").recovery_mean == pytest.approx(17.0, rel=1e-3)

    def test_suppress_untracked_node_is_noop(self):
        sim, nn, hb = setup()
        hb.suppress("ghost")
        hb.unsuppress("ghost")
        sim.run(until=10.0)
        assert nn.is_live("n0")
