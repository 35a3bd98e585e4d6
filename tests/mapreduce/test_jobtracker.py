"""JobTracker behaviour on a small wired cluster with scripted failures.

These tests drive the full stack (engine + network + HDFS + MapReduce)
through ``build_cluster`` with *trace-driven* failures, so interruption
timing is exact and assertions can be sharp.
"""

import pytest

from repro.availability.generator import HostAvailability
from repro.availability.traces import AvailabilityTrace
from repro.core.placement import RandomPlacement
from repro.mapreduce.job import JobConf, MapJob, TaskState
from repro.runtime.cluster import ClusterConfig, build_cluster

GAMMA = 10.0
HORIZON = 100_000.0


def build(n=3, windows=None, detection="oracle", access=True, **config_kwargs):
    """A cluster of n hosts; ``windows[i]`` scripts host i's downtime."""
    hosts = [HostAvailability(host_id=f"n{i}") for i in range(n)]
    traces = [
        AvailabilityTrace(f"n{i}", HORIZON, (windows or {}).get(i, ()))
        for i in range(n)
    ]
    config = ClusterConfig(
        bandwidth_mbps=8.0,
        detection=detection,
        access_during_downtime=access,
        seed=1,
        **config_kwargs,
    )
    return build_cluster(hosts, config, traces=traces, default_gamma=GAMMA)


def ingest_and_submit(cluster, num_blocks, replication=1, conf=None):
    f = cluster.client.copy_from_local(
        "in", num_blocks=num_blocks, replication=replication, policy=RandomPlacement(), gamma=GAMMA
    )
    job = MapJob.uniform(conf or JobConf(), f, GAMMA)
    cluster.jobtracker.submit(job)
    return job


class TestFailureFree:
    def test_perfect_cluster_no_rework(self):
        # Failure-free: no rework/recovery; locality below 1 is possible
        # because stock Hadoop's idle nodes steal non-local tasks eagerly
        # (exactly the "data migration" cost the paper attributes to the
        # existing approach even without failures).
        cluster = build(n=4)
        job = ingest_and_submit(cluster, num_blocks=12)
        cluster.run_until_job_done()
        assert job.is_complete
        assert cluster.metrics.rework_time == 0.0
        assert cluster.metrics.recovery_time == 0.0
        assert cluster.metrics.data_locality >= 0.7

    def test_makespan_bounded_by_steal_tail(self):
        # Worst case: an eager steal pays one shared-uplink block fetch
        # (~2 x 67s at 8Mb/s) plus execution on top of the local work.
        cluster = build(n=4)
        job = ingest_and_submit(cluster, num_blocks=12)
        cluster.run_until_job_done()
        assert job.makespan < 250.0

    def test_single_node_serialises(self):
        cluster = build(n=1)
        job = ingest_and_submit(cluster, num_blocks=5)
        cluster.run_until_job_done()
        assert job.makespan == pytest.approx(5 * GAMMA)

    def test_all_tasks_completed_exactly_once(self):
        cluster = build(n=3)
        job = ingest_and_submit(cluster, num_blocks=9)
        cluster.run_until_job_done()
        for task in job.tasks:
            assert task.state is TaskState.COMPLETED
            assert job.completed_by(task) is not None


class TestInterruptedExecution:
    def test_task_reruns_after_return(self):
        # One node, interrupted mid-task; the task must rerun on the same
        # node after recovery (Section II.B).
        cluster = build(n=1, windows={0: [(5.0, 8.0)]})
        job = ingest_and_submit(cluster, num_blocks=1)
        cluster.run_until_job_done()
        task = job.tasks[0]
        assert len(job.attempts_of(task)) == 2
        # The job keeps the history in creation order.
        assert [a.ordinal for a in job.attempts_of(task)] == [1, 2]
        # 5s lost + 3s down + 10s rerun = finishes at 18.
        assert job.makespan == pytest.approx(18.0)
        assert cluster.metrics.rework_time == pytest.approx(5.0)

    def test_other_node_takes_over_with_replica(self):
        # Two nodes, replication 2: when the running node dies for a long
        # time, the other node executes locally after detection.
        cluster = build(n=2, windows={0: [(5.0, 50_000.0)]})
        job = ingest_and_submit(cluster, num_blocks=2, replication=2)
        cluster.run_until_job_done()
        assert job.is_complete
        assert job.makespan < 100.0
        # All completions happened on the surviving node.
        for task in job.tasks:
            assert job.completed_by(task).node_id == cluster.ids.id_of("n1")

    def test_migration_when_no_local_replica(self):
        # Node 0 holds everything (node 1 down during ingest in stock HDFS
        # would get nothing; here we just use 1-replica random placement on
        # a 2-node cluster and check remote completions happen after death).
        cluster = build(n=2, windows={0: [(1.0, 50_000.0)]})
        job = ingest_and_submit(cluster, num_blocks=4)
        cluster.run_until_job_done()
        assert job.is_complete
        remote = [t for t in job.tasks if not job.completed_by(t).local]
        # Whatever node 0 held had to migrate to node 1.
        assert cluster.metrics.migrations >= len(remote) > 0

    def test_hard_downtime_blocks_until_return(self):
        # access_during_downtime=False and a single replica on the downed
        # node: the job cannot finish before the node returns.
        cluster = build(n=2, windows={0: [(1.0, 500.0)]}, access=False)
        f = cluster.client.copy_from_local("in", num_blocks=2, policy=RandomPlacement(), gamma=GAMMA)
        holders = {h for b in f.blocks for h in cluster.namenode.replica_holders(b.block_id)}
        job = MapJob.uniform(JobConf(), f, GAMMA)
        cluster.jobtracker.submit(job)
        cluster.run_until_job_done()
        if cluster.ids.id_of("n0") in holders:
            assert job.makespan >= 500.0
        else:
            assert job.makespan < 500.0

    def test_readable_storage_allows_early_finish(self):
        # Same scenario with access_during_downtime=True: blocks stream
        # from the down node and the job finishes long before its return.
        cluster = build(n=2, windows={0: [(1.0, 5000.0)]}, access=True)
        job = ingest_and_submit(cluster, num_blocks=2)
        cluster.run_until_job_done()
        assert job.makespan < 500.0


class TestSpeculation:
    def test_stalled_task_is_duplicated(self):
        # Node 0 dies silently mid-task (no detection in 'heartbeat' mode
        # before the timeout); node 1 should speculate and win.
        cluster = build(
            n=2,
            windows={0: [(5.0, 50_000.0)]},
            detection="heartbeat",
            heartbeat_interval=60.0,
            heartbeat_miss_threshold=10,
        )
        job = ingest_and_submit(cluster, num_blocks=2, replication=2)
        cluster.run_until_job_done()
        assert job.is_complete
        # The job must beat the 600s detection timeout via speculation.
        assert job.makespan < 600.0
        assert cluster.metrics.speculative_attempts >= 1

    def test_speculation_disabled_waits_for_detection(self):
        cluster = build(
            n=2,
            windows={0: [(5.0, 50_000.0)]},
            detection="heartbeat",
            heartbeat_interval=60.0,
            heartbeat_miss_threshold=10,
            speculation_enabled=False,
        )
        job = ingest_and_submit(cluster, num_blocks=2, replication=2)
        cluster.run_until_job_done()
        assert job.is_complete
        # Without speculation, the stalled task waits for the ~600s timeout
        # (unless node 0 held nothing; with 2 blocks x2 replicas it held both).
        assert job.makespan > 500.0

    def test_losing_duplicate_is_killed(self):
        cluster = build(n=2, windows={0: [(5.0, 120.0)]}, detection="heartbeat")
        job = ingest_and_submit(cluster, num_blocks=2, replication=2)
        cluster.run_until_job_done()
        from repro.mapreduce.job import AttemptState

        killed = [a for a in job.attempts if a.state is AttemptState.KILLED]
        live = [a for a in job.attempts if a.is_live]
        assert not live  # nothing left running after completion


class TestAccountingConservation:
    @pytest.mark.parametrize("windows", [None, {0: [(3.0, 9.0), (30.0, 38.0)]}])
    def test_slot_time_conservation(self, windows):
        cluster = build(n=3, windows=windows)
        job = ingest_and_submit(cluster, num_blocks=9)
        cluster.run_until_job_done()
        breakdown = cluster.metrics.breakdown(job.makespan, slots=cluster.total_slots)
        # The residual is scheduling slack absorbed into misc; it must be a
        # tiny fraction of total slot time.
        assert abs(breakdown.conservation_residual()) < 0.05 * breakdown.slot_time + 1.0

    def test_recovery_equals_down_overlap(self):
        cluster = build(n=2, windows={0: [(2.0, 12.0)]})
        job = ingest_and_submit(cluster, num_blocks=4)
        cluster.run_until_job_done()
        overlap = min(job.makespan, 12.0) - 2.0
        assert cluster.metrics.recovery_time == pytest.approx(overlap, abs=1e-6)


class TestDeterminism:
    def test_identical_runs(self):
        def run():
            cluster = build(n=4, windows={1: [(7.0, 15.0)], 2: [(20.0, 29.0)]})
            job = ingest_and_submit(cluster, num_blocks=16)
            cluster.run_until_job_done()
            return (
                job.makespan,
                cluster.metrics.data_locality,
                cluster.metrics.migration_time,
            )

        assert run() == run()

    def test_submit_twice_rejected(self):
        cluster = build(n=2)
        job = ingest_and_submit(cluster, num_blocks=2)
        f2 = cluster.client.copy_from_local("in2", num_blocks=2, policy=RandomPlacement(), gamma=GAMMA)
        job2 = MapJob.uniform(JobConf(), f2, GAMMA)
        with pytest.raises(RuntimeError, match="already running"):
            cluster.jobtracker.submit(job2)
