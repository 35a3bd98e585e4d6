"""Property-based invariants of the full simulation stack.

Hypothesis drives randomized small clusters (size, interruption mix,
bandwidth, replication, policy) through complete map phases and checks the
invariants that must survive *any* schedule:

* the job always terminates, every task exactly once;
* no two replicas of a block ever co-locate;
* the slot-time conservation law holds up to scheduling slack;
* locality is consistent with the attempt records;
* reruns with the same seed are bit-identical.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.availability.generator import build_group_hosts
from repro.core.placement import make_policy
from repro.mapreduce.job import AttemptState, JobConf, MapJob, TaskState
from repro.runtime.cluster import ClusterConfig, build_cluster

GAMMA = 10.0

cluster_params = st.fixed_dictionaries(
    {
        "nodes": st.integers(min_value=2, max_value=10),
        "ratio": st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
        "blocks_per_node": st.integers(min_value=1, max_value=4),
        "replication": st.integers(min_value=1, max_value=2),
        "policy": st.sampled_from(["existing", "adapt", "naive"]),
        "bandwidth": st.sampled_from([4.0, 8.0, 32.0]),
        "seed": st.integers(min_value=0, max_value=10_000),
        "detection": st.sampled_from(["oracle", "heartbeat"]),
        "access": st.booleans(),
        "speculation": st.booleans(),
    }
)


def run_scenario(p):
    hosts = build_group_hosts(p["nodes"], p["ratio"])
    config = ClusterConfig(
        bandwidth_mbps=p["bandwidth"],
        detection=p["detection"],
        access_during_downtime=p["access"],
        speculation_enabled=p["speculation"],
        seed=p["seed"],
    )
    cluster = build_cluster(hosts, config, default_gamma=GAMMA)
    cluster.sim.run(until=0.0)
    replication = min(p["replication"], p["nodes"])
    f = cluster.client.copy_from_local(
        "in",
        num_blocks=p["blocks_per_node"] * p["nodes"],
        replication=replication,
        policy=make_policy(p["policy"]),
        gamma=GAMMA,
    )
    job = MapJob.uniform(JobConf(), f, GAMMA)
    cluster.jobtracker.submit(job)
    cluster.run_until_job_done(max_events=5_000_000)
    return cluster, job, f


class TestInvariants:
    @given(cluster_params)
    @settings(max_examples=30, deadline=None)
    def test_job_terminates_every_task_once(self, p):
        cluster, job, _f = run_scenario(p)
        assert job.is_complete
        for task in job.tasks:
            assert task.state is TaskState.COMPLETED
            succeeded = [a for a in job.attempts_of(task) if a.state is AttemptState.SUCCEEDED]
            assert len(succeeded) == 1
            assert job.completed_by(task) is succeeded[0]
            assert not task.live

    @given(cluster_params)
    @settings(max_examples=20, deadline=None)
    def test_replicas_never_colocate(self, p):
        cluster, job, f = run_scenario(p)
        for block in f.blocks:
            holders = cluster.namenode.replica_holders(block.block_id)
            assert len(holders) == min(p["replication"], p["nodes"])

    @given(cluster_params)
    @settings(max_examples=20, deadline=None)
    def test_slot_time_conservation(self, p):
        cluster, job, _f = run_scenario(p)
        breakdown = cluster.metrics.breakdown(job.makespan, slots=cluster.total_slots)
        residual = abs(breakdown.conservation_residual())
        assert residual < 0.05 * breakdown.slot_time + 1.0

    @given(cluster_params)
    @settings(max_examples=20, deadline=None)
    def test_locality_consistent_with_attempts(self, p):
        cluster, job, _f = run_scenario(p)
        local = sum(1 for t in job.tasks if job.completed_by(t).local)
        assert cluster.metrics.local_tasks == local
        assert cluster.metrics.total_tasks == job.num_tasks
        # A local completion's node must actually hold the block.
        for task in job.tasks:
            winner = job.completed_by(task)
            if winner.local:
                assert winner.node_id in cluster.namenode.replica_holders(
                    task.block.block_id
                )

    @given(cluster_params)
    @settings(max_examples=10, deadline=None)
    def test_seed_determinism(self, p):
        _c1, job1, _f1 = run_scenario(p)
        _c2, job2, _f2 = run_scenario(p)
        assert job1.makespan == job2.makespan
        assert [job1.completed_by(t).node_id for t in job1.tasks] == [
            job2.completed_by(t).node_id for t in job2.tasks
        ]

    @given(cluster_params)
    @settings(max_examples=20, deadline=None)
    def test_metrics_non_negative_and_bounded(self, p):
        cluster, job, _f = run_scenario(p)
        m = cluster.metrics
        assert m.rework_time >= 0.0
        assert m.recovery_time >= 0.0
        assert m.migration_time >= 0.0
        assert 0.0 <= m.data_locality <= 1.0
        # Useful time equals base work (uniform gammas, one win per task).
        assert m.useful_time == pytest.approx(job.total_base_work)
