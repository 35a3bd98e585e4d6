"""Tests for the speculation policy."""

import pytest

from repro.hdfs.blocks import Block
from repro.mapreduce.job import AttemptState, MapTask
from repro.mapreduce.speculation import SpeculationPolicy


def make_task(gamma=10.0):
    block = Block(block_id="b0", file_name="f", index=0, size_bytes=1024)
    return MapTask(task_id="t0", block=block, gamma=gamma)


class TestEligibility:
    def test_disabled_never_straggles(self):
        policy = SpeculationPolicy(enabled=False)
        task = make_task()
        assert not policy.is_straggling(task, now=1e9)

    def test_stalled_task_is_straggler(self):
        # An attempt died with its node; no live attempts -> straggler.
        policy = SpeculationPolicy()
        task = make_task()
        attempt = task.new_attempt("n0", local=True, speculative=False, now=0.0)
        attempt.retire(AttemptState.FAILED, now=3.0)
        assert policy.is_straggling(task, now=4.0)

    def test_fresh_attempt_not_straggler(self):
        policy = SpeculationPolicy(slowdown=2.0)
        task = make_task(gamma=10.0)
        task.new_attempt("n0", local=True, speculative=False, now=0.0)
        assert not policy.is_straggling(task, now=15.0)  # 15 < 2*10

    def test_slow_attempt_is_straggler(self):
        policy = SpeculationPolicy(slowdown=2.0)
        task = make_task(gamma=10.0)
        task.new_attempt("n0", local=True, speculative=False, now=0.0)
        assert policy.is_straggling(task, now=21.0)

    def test_remote_threshold_includes_fetch(self):
        task = make_task(gamma=10.0)  # 1024-byte block
        policy = SpeculationPolicy(slowdown=2.0, fetch_rate_bps=1024.0 / 50.0)
        task.new_attempt("n0", local=False, speculative=False, now=0.0, source_node="s")
        # Expected duration 60s -> threshold 120s.
        assert not policy.is_straggling(task, now=100.0)
        assert policy.is_straggling(task, now=121.0)

    def test_completed_task_never_straggles(self):
        policy = SpeculationPolicy()
        task = make_task()
        from repro.mapreduce.job import TaskState

        task.state = TaskState.COMPLETED
        assert not policy.is_straggling(task, now=1e9)


class TestMaySpeculate:
    def test_cap_respected(self):
        # The straggler scan keeps the cap; may_speculate re-tests only
        # straggling and the node.
        policy = SpeculationPolicy(slowdown=2.0, max_per_task=1)
        task = make_task(gamma=10.0)
        task.new_attempt("n0", local=True, speculative=False, now=0.0)
        assert policy.has_room(task)
        task.new_attempt("n1", local=True, speculative=True, now=0.0)
        assert not policy.has_room(task)

    def test_same_node_rejected(self):
        policy = SpeculationPolicy(slowdown=2.0)
        task = make_task(gamma=10.0)
        task.new_attempt("n0", local=True, speculative=False, now=0.0)
        assert not policy.may_speculate(task, "n0", now=50.0)
        assert policy.may_speculate(task, "n1", now=50.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            SpeculationPolicy(slowdown=0.5)
        with pytest.raises(ValueError):
            SpeculationPolicy(max_per_task=-1)
        with pytest.raises(ValueError):
            SpeculationPolicy(fetch_rate_bps=-1.0)


class TestFetchRate:
    def test_fetch_seconds_from_rate(self):
        # 1024-byte block at 64 B/s -> 16s nominal fetch.
        policy = SpeculationPolicy(fetch_rate_bps=64.0)
        task = make_task(gamma=10.0)
        assert policy.fetch_seconds(task) == pytest.approx(16.0)
        assert policy.expected_duration(task, remote=True) == pytest.approx(26.0)
        assert policy.expected_duration(task, remote=False) == pytest.approx(10.0)

    def test_remote_under_contention_is_not_spurious_straggler(self):
        # Regression: with no fetch rate, a remote attempt used to be held
        # to the local threshold, so any fetch slower than
        # (slowdown-1)*gamma looked like a straggler and triggered a
        # duplicate. Deriving the fetch term from the block
        # size and link rate fixes the threshold.
        task = make_task(gamma=10.0)  # 1024-byte block
        task.new_attempt("n0", local=False, speculative=False, now=0.0, source_node="s")
        # Contended fetch still in flight at t=30 (3x gamma).
        buggy = SpeculationPolicy(slowdown=2.0)  # no fetch rate
        assert buggy.is_straggling(task, now=30.0)  # the old false positive
        fixed = SpeculationPolicy(slowdown=2.0, fetch_rate_bps=1024.0 / 50.0)
        # Expected duration 10 + 50 = 60s -> threshold 120s.
        assert not fixed.is_straggling(task, now=30.0)
        assert fixed.is_straggling(task, now=121.0)  # genuinely slow still flagged


class TestJobTrackerDefault:
    def test_default_policy_derives_fetch_rate_from_network(self):
        # A JobTracker built without an explicit policy must not fall back
        # to the zero-fetch-term default; it derives the rate from the
        # network it schedules over.
        from repro.hdfs.namenode import NameNode
        from repro.mapreduce.jobtracker import JobTracker
        from repro.simulator.engine import Simulator
        from repro.simulator.metrics import MapPhaseMetrics
        from repro.simulator.network import Network

        sim = Simulator()
        network = Network(sim, link_bps=500.0)
        tracker = JobTracker(sim, NameNode(), network, {}, MapPhaseMetrics())
        policy = tracker._speculation
        assert policy.fetch_rate_bps == pytest.approx(500.0)
        assert policy.fetch_seconds(make_task()) == pytest.approx(1024.0 / 500.0)
