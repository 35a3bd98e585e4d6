"""Fault-injection tests for the cross-layer invariant auditor.

Each test corrupts exactly one layer of a wired cluster — removes a
physical replica, drops a ``BlockLost`` publication, tampers a counter,
flips a liveness bit — and asserts the auditor catches it under the
expected invariant name. A clean run must stay clean, strict mode must
raise, and attaching the auditor must not change a seeded trajectory.
"""

import copy
import heapq
import json
import math

import pytest

from repro.availability.generator import build_group_hosts
from repro.core.placement import make_policy
from repro.mapreduce.job import JobConf, MapJob, TaskState
from repro.runtime.cluster import ClusterConfig, build_cluster
from repro.simulator.engine import EventHandle
from repro.simulator.events import BlockLost, NodeDown, NodePurged, TaskStateChange
from repro.simulator.invariants import (
    AUDIT_MODES,
    AuditReport,
    InvariantAuditor,
    InvariantViolationError,
)

GAMMA = 10.0


def small_cluster(ratio=0.0, audit="report", **overrides):
    hosts = build_group_hosts(4, ratio)
    config = ClusterConfig(seed=5, audit=audit, **overrides)
    cluster = build_cluster(hosts, config)
    cluster.sim.run(until=0.0)
    return cluster


def ingest(cluster, num_blocks=8, replication=1):
    return cluster.client.copy_from_local(
        "in", num_blocks=num_blocks, replication=replication,
        policy=make_policy("existing"), gamma=GAMMA,
    )


def run_job(cluster, dfs_file):
    job = MapJob.uniform(JobConf(), dfs_file, GAMMA)
    cluster.jobtracker.submit(job)
    cluster.run_until_job_done(max_events=5_000_000)
    return job


def violation_names(violations):
    return {v.invariant for v in violations}


class TestCleanRuns:
    def test_report_mode_clean_run(self):
        cluster = small_cluster(ratio=0.5)
        run_job(cluster, ingest(cluster))
        cluster.stop()
        report = cluster.auditor.report
        assert report.ok
        assert report.final_audit_run
        assert report.audits_run >= 2  # periodic cadence plus teardown
        assert report.events_observed > 0

    def test_strict_mode_clean_run_does_not_raise(self):
        cluster = small_cluster(ratio=0.5, audit="strict")
        run_job(cluster, ingest(cluster))
        cluster.stop()
        assert cluster.auditor.report.ok

    def test_auditing_is_pure_observation(self):
        # Attaching the auditor must not perturb the seeded trajectory.
        makespans = []
        for audit in ("off", "strict"):
            cluster = small_cluster(ratio=0.75, audit=audit)
            job = run_job(cluster, ingest(cluster))
            makespans.append(job.makespan)
            cluster.stop()
        assert makespans[0] == makespans[1]

    def test_audit_off_means_no_auditor(self):
        cluster = small_cluster(audit="off")
        assert cluster.auditor is None
        cluster.stop()

    def test_report_export_json(self, tmp_path):
        cluster = small_cluster(ratio=0.5)
        run_job(cluster, ingest(cluster))
        cluster.stop()
        path = tmp_path / "audit.json"
        cluster.auditor.report.export_json(str(path))
        payload = json.loads(path.read_text())
        assert payload["ok"] is True
        assert payload["final_audit_run"] is True
        assert payload["violations"] == []


class TestConfig:
    def test_invalid_audit_mode_rejected(self):
        with pytest.raises(ValueError, match="audit"):
            ClusterConfig(audit="bogus")

    def test_invalid_interval_rejected(self):
        # The audit cadence is InvariantAuditor's constructor default.
        cluster = small_cluster(audit="off")
        with pytest.raises(ValueError, match="interval"):
            InvariantAuditor(
                cluster.sim,
                cluster.bus,
                cluster.namenode,
                cluster.injector,
                cluster.network,
                cluster.trackers,
                cluster.metrics,
                interval=0.0,
            )

    def test_modes_tuple(self):
        assert AUDIT_MODES == ("off", "report", "strict")

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_AUDIT", "strict")
        cluster = small_cluster(audit="off")
        assert cluster.auditor is not None
        assert cluster.auditor.mode == "strict"
        cluster.stop()

    def test_bad_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_AUDIT", "paranoid")
        with pytest.raises(ValueError, match="REPRO_AUDIT"):
            small_cluster(audit="off")


class TestStorageFaults:
    def test_missing_physical_replica_caught(self):
        cluster = small_cluster()
        f = ingest(cluster, replication=2)
        block = f.blocks[0]
        holder = sorted(cluster.namenode.replica_holders(block.block_id))[0]
        cluster.namenode.datanode(holder).remove(block.block_id)
        names = violation_names(cluster.auditor.audit())
        assert "replica-map-physical" in names
        assert "orphan-replica" not in names

    def test_orphan_replica_caught(self):
        cluster = small_cluster()
        f = ingest(cluster, replication=1)
        block = f.blocks[0]
        holders = cluster.namenode.replica_holders(block.block_id)
        stranger = next(
            n for n in cluster.namenode.datanode_ids if n not in holders
        )
        cluster.namenode.datanode(stranger).store(
            cluster.namenode.block(block.block_id)
        )
        names = violation_names(cluster.auditor.audit())
        assert "orphan-replica" in names

    def test_spurious_block_lost_announcement_caught(self):
        cluster = small_cluster()
        f = ingest(cluster, replication=1)
        block = f.blocks[0]  # replicas alive and well
        cluster.bus.publish(BlockLost(time=cluster.sim.now, block_id=block.block_id))
        names = violation_names(cluster.auditor.audit())
        assert "lost-block-has-replicas" in names

    def test_dropped_block_lost_publication_caught(self):
        # The pipeline wipes a disk and records the loss, but the BlockLost
        # publication is swallowed: the belief layer never learns. The
        # auditor must notice both the unannounced loss and the counter gap.
        cluster = small_cluster()
        ingest(cluster, replication=1)
        real_publish = cluster.bus.publish

        def dropping_publish(event):
            if isinstance(event, BlockLost):
                return
            real_publish(event)

        cluster.bus.publish = dropping_publish
        victim = cluster.namenode.datanode_ids[0]
        cluster.injector.schedule_permanent_failure(victim, at_time=cluster.sim.now + 1.0)
        cluster.sim.run(until=cluster.sim.now + 2.0)
        assert cluster.durability.blocks_lost > 0  # the fault actually fired
        names = violation_names(cluster.auditor.audit())
        assert "unannounced-block-loss" in names
        assert "lost-block-count" in names


class TestLivenessFaults:
    def test_datanode_liveness_disagreement_caught(self):
        cluster = small_cluster()
        node = cluster.namenode.datanode_ids[0]
        # The injector says up; only the DataNode hears a NodeDown.
        cluster.namenode.datanode(node).handle_node_down(NodeDown(time=0.0, node_id=node))
        names = violation_names(cluster.auditor.audit())
        assert "liveness-disagreement" in names

    def test_purged_node_believed_live_caught(self):
        cluster = small_cluster()
        node = cluster.namenode.datanode_ids[0]
        cluster.namenode.mark_dead(node)
        cluster.bus.publish(NodePurged(time=cluster.sim.now, node_id=node))
        assert not cluster.auditor.audit()  # consistent: purged and dead
        cluster.namenode.mark_alive(node)
        names = violation_names(cluster.auditor.audit())
        assert "purged-node-believed-live" in names


class TestAttemptFaults:
    def _cluster_with_live_attempt(self):
        cluster = small_cluster()
        f = ingest(cluster)
        job = MapJob.uniform(JobConf(), f, GAMMA)
        cluster.jobtracker.submit(job)
        for _ in range(10_000):
            tracker = next(
                (t for t in cluster.trackers.values() if t.live_attempts()), None
            )
            if tracker is not None:
                return cluster, tracker
            if not cluster.sim.step():
                break
        raise AssertionError("no live attempt materialised")

    def test_attempt_on_down_node_caught(self):
        cluster, tracker = self._cluster_with_live_attempt()
        tracker._is_up = False  # fault: down tracker still holds attempts
        names = violation_names(cluster.auditor.audit())
        assert "attempt-on-down-node" in names

    def test_live_attempt_task_state_caught(self):
        cluster, tracker = self._cluster_with_live_attempt()
        tracker.live_attempts()[0].task.state = TaskState.PENDING
        names = violation_names(cluster.auditor.audit())
        assert "live-attempt-task-state" in names

    def test_slot_overcommit_caught(self):
        cluster, tracker = self._cluster_with_live_attempt()
        attempt = tracker.live_attempts()[0]
        tracker._live[copy.copy(attempt)] = None  # a phantom twin: 2 > 1 slot
        names = violation_names(cluster.auditor.audit())
        assert "slot-overcommit" in names


class TestEventStreamFaults:
    def test_event_time_behind_clock_caught(self):
        cluster = small_cluster(ratio=0.5)
        run_job(cluster, ingest(cluster))
        assert cluster.sim.now > 0.0
        cluster.bus.publish(TaskStateChange(time=0.0, task_id="t", state="pending"))
        names = violation_names(cluster.auditor.audit())
        assert "event-time-behind-clock" in names
        assert "event-time-monotonic" in names

    def test_event_heap_time_caught(self):
        cluster = small_cluster(ratio=0.5)
        run_job(cluster, ingest(cluster))
        assert cluster.sim.now > 1.0
        stale = EventHandle(0.0, lambda: None, "stale")
        heapq.heappush(cluster.sim._heap, (0.0, -1, stale))
        names = violation_names(cluster.auditor.audit())
        assert "event-heap-time" in names


class TestCounterFaults:
    def test_tampered_interruption_counter_caught(self):
        cluster = small_cluster()
        cluster.metrics.interruptions += 1  # no NodeDown was published
        names = violation_names(cluster.auditor.audit())
        assert "interruption-count" in names

    def test_tampered_node_return_counter_caught(self):
        cluster = small_cluster()
        cluster.metrics.node_returns += 1
        names = violation_names(cluster.auditor.audit())
        assert "node-return-count" in names

    def test_tampered_permanent_failure_counter_caught(self):
        cluster = small_cluster()
        cluster.durability.record_permanent_failure(replicas_destroyed=0)
        names = violation_names(cluster.auditor.audit())
        assert "permanent-failure-count" in names

    def test_tampered_failed_attempt_counter_caught(self):
        cluster = small_cluster(ratio=0.5)
        run_job(cluster, ingest(cluster))
        cluster.metrics.failed_attempts += 1
        names = violation_names(cluster.auditor.audit())
        assert "failed-attempt-count" in names

    def test_tampered_speculative_counter_caught(self):
        cluster = small_cluster(ratio=0.5)
        run_job(cluster, ingest(cluster))
        cluster.metrics.speculative_attempts += 1
        names = violation_names(cluster.auditor.audit())
        assert "speculative-attempt-count" in names


class TestConservationFaults:
    def test_inflated_idle_time_caught(self):
        cluster = small_cluster(ratio=0.5)
        run_job(cluster, ingest(cluster))
        assert not cluster.auditor.audit()  # exact before the tamper
        cluster.metrics.add_idle(123.0)
        names = violation_names(cluster.auditor.audit())
        assert "conservation-residual" in names

    def test_residual_matches_breakdown(self):
        # The auditor's conservation identity is the same quantity
        # OverheadBreakdown.conservation_residual reports, and on a clean
        # run both sit inside the auditor's float tolerance.
        cluster = small_cluster(ratio=0.5)
        job = run_job(cluster, ingest(cluster))
        breakdown = cluster.metrics.breakdown(job.makespan, slots=cluster.total_slots)
        auditor = cluster.auditor
        tolerance = (
            auditor._residual_rel_tol * max(breakdown.slot_time, 1.0)
            + auditor._residual_abs_tol
        )
        assert abs(breakdown.conservation_residual()) <= tolerance
        assert not auditor.audit()
        cluster.stop()


class TestStrictMode:
    def test_strict_audit_raises_with_violation_details(self):
        cluster = small_cluster(audit="strict")
        cluster.metrics.interruptions += 1
        with pytest.raises(InvariantViolationError, match="interruption-count"):
            cluster.auditor.audit()
        # The raise still recorded the sweep into the report.
        assert not cluster.auditor.report.ok

    def test_report_mode_accumulates_instead(self):
        cluster = small_cluster(audit="report")
        cluster.metrics.interruptions += 1
        found = cluster.auditor.audit()
        assert found  # returned, not raised
        report = cluster.auditor.report
        assert not report.ok
        assert report.counts_by_invariant()["interruption-count"] >= 1

    def test_report_roundtrip(self):
        report = AuditReport(mode="report")
        assert report.ok
        payload = report.to_jsonable()
        assert payload["mode"] == "report"
        assert payload["violation_counts"] == {}


class TestMathAbandonment:
    def test_total_data_loss_reports_nan_locality_and_breakdown(self):
        # Every replica of every block destroyed before any completion:
        # all tasks are abandoned, locality is NaN, but the breakdown row
        # still emits (satellite regression: this used to ValueError).
        cluster = small_cluster(audit="off")
        f = ingest(cluster, replication=1)
        job = MapJob.uniform(JobConf(), f, GAMMA)
        for node in cluster.namenode.datanode_ids:
            cluster.injector.schedule_permanent_failure(node, at_time=0.5)
        cluster.jobtracker.submit(job)
        cluster.run_until_job_done(max_events=5_000_000)
        assert all(t.state is TaskState.ABANDONED for t in job.tasks)
        assert math.isnan(cluster.metrics.data_locality)
        breakdown = cluster.metrics.breakdown(job.makespan, slots=cluster.total_slots)
        assert math.isnan(breakdown.data_locality)
        assert breakdown.slot_time >= 0.0
        cluster.stop()
