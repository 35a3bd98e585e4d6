"""Tests for TaskTracker execution and interruption semantics."""

import pytest

from repro.hdfs.blocks import DfsFile
from repro.mapreduce.job import AttemptState, JobConf, MapJob
from repro.mapreduce.tasktracker import TaskTracker
from repro.simulator.engine import Simulator
from repro.simulator.events import NodeDegraded, NodeDown, NodeUp
from repro.simulator.metrics import MapPhaseMetrics
from repro.simulator.network import Network


class StubJobTracker:
    def __init__(self):
        self.succeeded = []
        self.failed = []
        self.available = []

    def on_attempt_succeeded(self, attempt):
        self.succeeded.append(attempt)

    def on_attempt_failed(self, attempt):
        self.failed.append(attempt)

    def on_node_available(self, node_id):
        self.available.append(node_id)


def setup(gamma=10.0, block_size=1000, bandwidth=100.0, slots=1):
    sim = Simulator()
    net = Network(sim, link_bps=bandwidth)
    metrics = MapPhaseMetrics()
    tracker = TaskTracker(sim, "node", net, metrics, slots=slots)
    jt = StubJobTracker()
    tracker.bind(jt)
    f = DfsFile.build("in", 4, block_size, 1)
    job = MapJob.uniform(JobConf(), f, gamma)
    return sim, net, metrics, tracker, jt, job


class TestLocalExecution:
    def test_completes_after_gamma(self):
        sim, _n, metrics, tracker, jt, job = setup(gamma=10.0)
        attempt = job.tasks[0].new_attempt("node", local=True, speculative=False, now=0.0)
        tracker.execute(attempt)
        sim.run()
        assert attempt.state is AttemptState.SUCCEEDED
        assert attempt.finished_at == pytest.approx(10.0)
        assert jt.succeeded == [attempt]
        assert metrics.useful_time == pytest.approx(10.0)

    def test_slot_accounting(self):
        sim, _n, _m, tracker, jt, job = setup()
        attempt = job.tasks[0].new_attempt("node", local=True, speculative=False, now=0.0)
        tracker.execute(attempt)
        assert tracker.free_slots == 0
        sim.run()
        assert tracker.free_slots == 1
        assert tracker.busy_seconds == pytest.approx(10.0)

    def test_free_slots_follow_execute_kill_and_node_down(self):
        sim, _n, _m, tracker, jt, job = setup(slots=3)
        local = [
            job.tasks[i].new_attempt("node", local=True, speculative=False, now=0.0)
            for i in range(2)
        ]
        remote = job.tasks[2].new_attempt(
            "node", local=False, speculative=False, now=0.0, source_node="src"
        )
        for attempt in local:
            tracker.execute(attempt)
        assert tracker.free_slots == 1
        tracker.execute(remote)  # a fetching attempt holds its slot too
        assert tracker.free_slots == 0
        tracker.kill(local[0])
        assert tracker.free_slots == 1
        tracker.kill(local[0])  # killing a retired attempt frees nothing twice
        assert tracker.free_slots == 1
        tracker.handle_node_down(NodeDown(time=sim.now, node_id="node"))
        assert tracker.free_slots == 3
        assert tracker.free_slots == tracker.slots - tracker.running_attempts
        assert [a.state for a in (local[1], remote)] == [AttemptState.FAILED] * 2

    def test_slot_overflow_rejected(self):
        sim, _n, _m, tracker, jt, job = setup(slots=1)
        a0 = job.tasks[0].new_attempt("node", local=True, speculative=False, now=0.0)
        a1 = job.tasks[1].new_attempt("node", local=True, speculative=False, now=0.0)
        tracker.execute(a0)
        with pytest.raises(RuntimeError, match="no free slot"):
            tracker.execute(a1)

    def test_wrong_node_rejected(self):
        sim, _n, _m, tracker, jt, job = setup()
        attempt = job.tasks[0].new_attempt("other", local=True, speculative=False, now=0.0)
        with pytest.raises(ValueError):
            tracker.execute(attempt)


class TestRemoteExecution:
    def test_fetch_then_execute(self):
        # 1000 bytes at 100 B/s = 10s fetch, then 10s execution.
        sim, _n, metrics, tracker, jt, job = setup(gamma=10.0)
        attempt = job.tasks[0].new_attempt(
            "node", local=False, speculative=False, now=0.0, source_node="src"
        )
        tracker.execute(attempt)
        sim.run()
        assert attempt.state is AttemptState.SUCCEEDED
        assert attempt.finished_at == pytest.approx(20.0)
        assert metrics.migration_time == pytest.approx(10.0)
        assert metrics.migrations == 1


class TestInterruption:
    def test_running_attempt_becomes_rework(self):
        sim, _n, metrics, tracker, jt, job = setup(gamma=10.0)
        attempt = job.tasks[0].new_attempt("node", local=True, speculative=False, now=0.0)
        tracker.execute(attempt)
        sim.schedule(4.0, lambda: tracker.handle_node_down(NodeDown(time=4.0, node_id="node")))
        sim.run()
        assert attempt.state is AttemptState.FAILED
        assert metrics.rework_time == pytest.approx(4.0)
        assert metrics.useful_time == 0.0
        assert jt.failed == [attempt]
        assert not tracker.is_up

    def test_fetching_attempt_charges_partial_migration(self):
        sim, _n, metrics, tracker, jt, job = setup(gamma=10.0)
        attempt = job.tasks[0].new_attempt(
            "node", local=False, speculative=False, now=0.0, source_node="src"
        )
        tracker.execute(attempt)
        sim.schedule(3.0, lambda: tracker.handle_node_down(NodeDown(time=3.0, node_id="node")))
        sim.run()
        assert attempt.state is AttemptState.FAILED
        assert metrics.migration_time == pytest.approx(3.0)
        assert metrics.rework_time == 0.0

    def test_node_up_notifies_jobtracker(self):
        sim, _n, _m, tracker, jt, job = setup()
        sim.schedule(1.0, lambda: tracker.handle_node_down(NodeDown(time=1.0, node_id="node")))
        sim.schedule(5.0, lambda: tracker.handle_node_up(NodeUp(time=5.0, node_id="node")))
        sim.run()
        assert jt.available == ["node"]
        assert tracker.is_up

    def test_exec_factor_below_one_rejected(self):
        sim, _n, _m, tracker, jt, job = setup()
        with pytest.raises(ValueError, match="exec factor"):
            tracker.handle_node_degraded(NodeDegraded(0.0, "node", exec_factor=0.5))

    def test_execute_while_down_rejected(self):
        sim, _n, _m, tracker, jt, job = setup()
        tracker.handle_node_down(NodeDown(time=0.0, node_id="node"))
        attempt = job.tasks[0].new_attempt("node", local=True, speculative=False, now=0.0)
        with pytest.raises(RuntimeError, match="down"):
            tracker.execute(attempt)


class TestKill:
    def test_kill_running_charges_duplicate(self):
        sim, _n, metrics, tracker, jt, job = setup(gamma=10.0)
        attempt = job.tasks[0].new_attempt("node", local=True, speculative=True, now=0.0)
        tracker.execute(attempt)
        sim.schedule(6.0, lambda: tracker.kill(attempt))
        sim.run()
        assert attempt.state is AttemptState.KILLED
        assert metrics.duplicate_time == pytest.approx(6.0)
        assert jt.succeeded == []

    def test_kill_fetching_charges_migration(self):
        sim, _n, metrics, tracker, jt, job = setup()
        attempt = job.tasks[0].new_attempt(
            "node", local=False, speculative=True, now=0.0, source_node="src"
        )
        tracker.execute(attempt)
        sim.schedule(2.0, lambda: tracker.kill(attempt))
        sim.run()
        assert attempt.state is AttemptState.KILLED
        assert metrics.migration_time == pytest.approx(2.0)
        assert metrics.duplicate_time == 0.0

    def test_kill_terminal_is_noop(self):
        sim, _n, metrics, tracker, jt, job = setup()
        attempt = job.tasks[0].new_attempt("node", local=True, speculative=False, now=0.0)
        tracker.execute(attempt)
        sim.run()
        tracker.kill(attempt)  # already SUCCEEDED
        assert attempt.state is AttemptState.SUCCEEDED
