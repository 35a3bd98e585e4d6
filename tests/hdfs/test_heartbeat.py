"""Tests for the heartbeat service: detection lag and predictor feeding."""

import pytest

from repro.hdfs.datanode import DataNode
from repro.hdfs.heartbeat import HeartbeatService
from repro.hdfs.namenode import NameNode
from repro.simulator.engine import Simulator
from repro.simulator.events import NodeDeclaredDead, NodeReturned, Phase


def setup(interval=3.0, misses=3, nodes=1):
    sim = Simulator()
    nn = NameNode()
    for i in range(nodes):
        nn.register_datanode(DataNode(f"n{i}"))
    hb = HeartbeatService(sim, nn, interval=interval, miss_threshold=misses)
    for i in range(nodes):
        hb.track(f"n{i}")
    return sim, nn, hb


def on_belief(hb, event_type, record):
    """Call ``record(node, time)`` for each ``event_type`` ``hb`` publishes."""
    hb.bus.subscribe(event_type, lambda e: record(e.node_id, e.time), Phase.ACCOUNTING)


class TestLiveness:
    def test_live_node_stays_live(self):
        sim, nn, hb = setup()
        sim.run(until=100.0)
        assert nn.is_live("n0")

    def test_dead_after_timeout(self):
        sim, nn, hb = setup()
        deaths = []
        on_belief(hb, NodeDeclaredDead, lambda n, t: deaths.append((n, t)))
        sim.schedule(10.0, lambda: hb.node_down("n0", 10.0))
        sim.run(until=100.0)
        assert not nn.is_live("n0")
        assert len(deaths) == 1
        # Death detected within one timeout of the last beat (~9 + 9s).
        assert deaths[0][1] <= 10.0 + 2 * hb.timeout

    def test_return_detected_on_first_beat(self):
        sim, nn, hb = setup()
        returns = []
        on_belief(hb, NodeReturned, lambda n, t: returns.append((n, t)))
        sim.schedule(10.0, lambda: hb.node_down("n0", 10.0))
        sim.schedule(50.0, lambda: hb.node_up("n0", 50.0))
        sim.run(until=100.0)
        assert nn.is_live("n0")
        assert len(returns) == 1
        assert returns[0][1] == pytest.approx(50.0)

    def test_short_blip_not_detected(self):
        # Down for less than the timeout: the NameNode never notices.
        sim, nn, hb = setup(interval=3.0, misses=3)
        deaths = []
        on_belief(hb, NodeDeclaredDead, lambda n, t: deaths.append(n))
        sim.schedule(10.0, lambda: hb.node_down("n0", 10.0))
        sim.schedule(13.0, lambda: hb.node_up("n0", 13.0))
        sim.run(until=100.0)
        assert deaths == []
        assert nn.is_live("n0")


class TestPredictorFeeding:
    def test_uptime_observed(self):
        sim, nn, hb = setup()
        sim.run(until=31.0)
        est = nn.predictor.estimate("n0")
        # ~30s of uptime observed through beats.
        assert nn.predictor._estimators["n0"].observed_uptime == pytest.approx(30.0, abs=4.0)

    def test_downtime_observed_on_return(self):
        sim, nn, hb = setup()
        sim.schedule(9.0, lambda: hb.node_down("n0", 9.0))
        sim.schedule(29.0, lambda: hb.node_up("n0", 29.0))
        sim.run(until=60.0)
        estimator = nn.predictor._estimators["n0"]
        assert estimator.observed_episodes == 1

    def test_double_track_rejected(self):
        sim, nn, hb = setup()
        with pytest.raises(ValueError, match="already tracked"):
            hb.track("n0")


class TestConfigValidation:
    def test_timeout_property(self):
        sim, nn, hb = setup(interval=2.0, misses=5)
        assert hb.timeout == 10.0

    def test_invalid_params(self):
        sim = Simulator()
        nn = NameNode()
        with pytest.raises(ValueError):
            HeartbeatService(sim, nn, interval=0.0)
        with pytest.raises(ValueError):
            HeartbeatService(sim, nn, miss_threshold=0)


class TestTeardown:
    def test_untrack_disarms_beats_and_watchdog(self):
        sim, nn, hb = setup()
        hb.untrack("n0")
        assert not hb.is_tracked("n0")
        assert hb.tracked_nodes == []
        fired = sim.run(until=1000.0)
        assert fired == 0, "no beat or watchdog may fire after untrack"

    def test_untrack_is_idempotent_and_ignores_unknown(self):
        sim, nn, hb = setup()
        hb.untrack("n0")
        hb.untrack("n0")
        hb.untrack("ghost")
        assert hb.tracked_nodes == []

    def test_untracked_node_never_declared_dead(self):
        # A permanently-failed node is untracked at purge time: its silence
        # must not keep firing the watchdog forever.
        sim, nn, hb = setup()
        deaths = []
        on_belief(hb, NodeDeclaredDead, lambda n, t: deaths.append(n))
        sim.schedule(10.0, lambda: hb.node_down("n0", 10.0))
        sim.schedule(11.0, lambda: hb.untrack("n0"))
        sim.run(until=1000.0)
        assert deaths == []

    def test_stop_untracks_every_node(self):
        sim, nn, hb = setup(nodes=3)
        sim.run(until=10.0)
        hb.stop()
        assert hb.tracked_nodes == []
        assert sim.run(until=1000.0) == 0

    def test_retrack_after_untrack(self):
        sim, nn, hb = setup()
        hb.untrack("n0")
        hb.track("n0")
        assert hb.is_tracked("n0")
        sim.run(until=50.0)
        assert nn.is_live("n0")


class TestKnownDefects:
    """Defects pinned, not fixed: fixing them moves pinned benchmark
    digests, which waits for a change allowed to re-pin them."""

    #: A return instant whose deadline sum rounds down: with timeout 9 the
    #: stored deadline is ``BACK + 9.0``, yet ``(BACK + 9.0) - BACK`` is
    #: just under 9.
    BACK = 28.52056516328516

    def test_deadline_sum_rounds_down(self):
        assert (self.BACK + 9.0) - self.BACK < 9.0

    @pytest.mark.xfail(
        strict=True,
        reason="the watchdog recomputes now - last_beat instead of comparing "
        "against its stored deadline, so a rounded-down sum makes it return "
        "without re-arming and the outage goes unseen",
    )
    def test_watchdog_declares_death_when_deadline_sum_rounds_down(self):
        sim, nn, hb = setup(interval=3.0, misses=3)
        back = self.BACK
        sim.schedule_at(1.0, lambda: hb.node_down("n0", 1.0))
        sim.schedule_at(back, lambda: hb.node_up("n0", back))
        sim.schedule_at(back + 1.0, lambda: hb.node_down("n0", back + 1.0))
        sim.run(until=100.0)
        assert not nn.is_live("n0")
