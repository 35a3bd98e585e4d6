"""Failure-injection scenario tests: the nasty interleavings.

Each test scripts an adversarial downtime pattern through trace replay and
checks that the stack handles the interleaving correctly: flapping nodes,
failures during fetches (both endpoints), failure during a speculation
race, failure of the rebalance target, and simultaneous transitions.
"""

import pytest

from repro.availability.generator import HostAvailability
from repro.availability.traces import AvailabilityTrace
from repro.core.placement import RandomPlacement
from repro.mapreduce.job import AttemptState, JobConf, MapJob
from repro.runtime.cluster import ClusterConfig, build_cluster
from repro.simulator.scenarios import ChaosCampaign, GrayNode

GAMMA = 10.0
HORIZON = 1_000_000.0


def build(windows, n=3, detection="oracle", bandwidth=8.0, seed=1, **kw):
    hosts = [HostAvailability(host_id=f"n{i}") for i in range(n)]
    traces = [
        AvailabilityTrace(f"n{i}", HORIZON, windows.get(i, ())) for i in range(n)
    ]
    config = ClusterConfig(
        bandwidth_mbps=bandwidth,
        detection=detection,
        seed=seed,
        **kw,
    )
    return build_cluster(hosts, config, traces=traces, default_gamma=GAMMA)


def submit(cluster, blocks, replication=1):
    f = cluster.client.copy_from_local(
        "in", num_blocks=blocks, replication=replication,
        policy=RandomPlacement(), gamma=GAMMA,
    )
    job = MapJob.uniform(JobConf(), f, GAMMA)
    cluster.jobtracker.submit(job)
    return job


class TestFlapping:
    def test_rapid_flapping_node_makes_progress(self):
        # Node 0 is up for only 4s at a time (< gamma=10): its local tasks
        # can never finish there and must migrate or wait forever.
        windows = {0: [(float(t), float(t + 6)) for t in range(4, 100_000, 10)]}
        cluster = build(windows, n=2)
        job = submit(cluster, blocks=4)
        cluster.run_until_job_done()
        assert job.is_complete
        # Anything placed on n0 completed elsewhere (remotely on n1).
        for task in job.tasks:
            holders = cluster.namenode.replica_holders(task.block.block_id)
            if holders == {cluster.ids.id_of("n0")}:
                assert job.completed_by(task).node_id == cluster.ids.id_of("n1")


class TestFetchInterruption:
    def test_down_source_keeps_streaming(self):
        # n1 is down at ingest, so both blocks land on n0. n1 returns and
        # steals remotely; n0 goes down mid-transfer (fetches take ~67s).
        # A down host's stored blocks stay streamable, so the fetch runs on.
        windows = {0: [(12.0, 40.0)], 1: [(0.0, 5.0)]}
        cluster = build(windows, n=2)
        cluster.sim.run(until=0.0)
        job = submit(cluster, blocks=2)
        cluster.run_until_job_done()
        assert job.is_complete
        n0, n1 = cluster.ids.id_of("n0"), cluster.ids.id_of("n1")
        assert cluster.namenode.replica_holders(job.tasks[0].block.block_id) == {n0}
        fetches = [a for a in job.attempts if a.source_node is not None]
        assert fetches, "expected n1 to steal a block remotely"
        assert all(a.state is not AttemptState.FAILED for a in fetches)
        assert any(
            a.node_id == n1 and a.state is AttemptState.SUCCEEDED for a in fetches
        )

    def test_reader_dies_mid_fetch(self):
        # n1 starts a remote fetch and dies mid-transfer; the partial
        # transfer is charged to migration and the task recovers.
        windows = {1: [(15.0, 100_000.0)]}
        cluster = build(windows, n=3)
        job = submit(cluster, blocks=3)
        cluster.run_until_job_done()
        assert job.is_complete
        for task in job.tasks:
            n1 = cluster.ids.id_of("n1")
            winner = job.completed_by(task)
            assert winner.node_id != n1 or winner.finished_at < 15.0


class TestSimultaneousEvents:
    def test_all_nodes_down_and_back(self):
        # Every node goes down at t=30 and returns at t=60: the job stalls
        # completely, then finishes.
        windows = {i: [(30.0, 60.0)] for i in range(3)}
        cluster = build(windows, n=3)
        job = submit(cluster, blocks=6)
        cluster.run_until_job_done()
        assert job.is_complete
        assert job.makespan >= 60.0
        assert cluster.metrics.recovery_time == pytest.approx(90.0, abs=1.0)

    def test_down_at_ingest_time(self):
        # A node down exactly at t=0 must receive no blocks (testbed
        # semantics) and the job must still complete.
        windows = {0: [(0.0, 50.0)]}
        cluster = build(windows, n=3)
        cluster.sim.run(until=0.0)
        job = submit(cluster, blocks=6)
        cluster.run_until_job_done()
        dist = cluster.client.block_distribution("in")
        assert dist[cluster.ids.id_of("n0")] == 0
        assert job.is_complete


class TestSpeculationRaces:
    def test_speculative_winner_kills_original_cleanly(self):
        # n0 dies silently (heartbeat mode, 600s timeout) holding a task;
        # n1 speculates. When n0 returns at t=200, its zombie state must
        # not resurrect the completed task.
        windows = {0: [(5.0, 200.0)]}
        cluster = build(
            windows, n=2, detection="heartbeat",
            heartbeat_interval=60.0, heartbeat_miss_threshold=10,
        )
        job = submit(cluster, blocks=2, replication=2)
        cluster.run_until_job_done()
        assert job.is_complete
        # Run well past n0's return: no stray events may fire.
        cluster.sim.run(until=400.0)
        for task in job.tasks:
            succeeded = [a for a in job.attempts_of(task) if a.state is AttemptState.SUCCEEDED]
            assert len(succeeded) == 1

    def test_speculation_capped_per_task(self):
        # n0 dies under the task's only attempt, and its speculative copy
        # lands on gray node n1, which runs tasks ten times slower. That
        # copy straggles past the threshold (2 x gamma) while n2 and n3
        # sit idle, then dies with n1 at t=40. Only the cap (the default
        # policy allows one live speculative attempt per task) keeps the
        # idle nodes off the task until then; a fresh copy follows.
        windows = {0: [(5.0, 100_000.0)], 1: [(40.0, 100_000.0)]}
        slow = GrayNode(start=0.0, duration=1000.0, exec_factor=10.0, nodes=("n1",))
        cluster = build(
            windows, n=4, detection="heartbeat",
            heartbeat_interval=60.0, heartbeat_miss_threshold=10,
            chaos=ChaosCampaign("slow-speculation", (slow,)),
        )
        job = submit(cluster, blocks=1, replication=4)
        cluster.run_until_job_done()
        assert job.is_complete
        (task,) = job.tasks
        spec = [a for a in job.attempts_of(task) if a.speculative]
        assert len(spec) > 1
        assert spec[0].node_id == cluster.ids.id_of("n1")
        assert spec[0].finished_at - spec[0].created_at > 2 * GAMMA
        # Live speculative attempts over time: an attempt that ends at
        # the instant another starts is not live alongside it.
        edges = sorted(
            [(a.created_at, 1) for a in spec] + [(a.finished_at, -1) for a in spec]
        )
        live = peak = 0
        for _, step in edges:
            live += step
            peak = max(peak, live)
        assert peak == 1


class TestRebalanceUnderFailures:
    def test_adapt_command_with_down_nodes(self):
        # `adapt` planned while a node is down: moves must avoid it as a
        # destination (it is not in the placement views).
        windows = {2: [(0.0, 100_000.0)]}
        cluster = build(windows, n=3)
        cluster.sim.run(until=0.0)
        cluster.client.copy_from_local(
            "f", num_blocks=12, policy=RandomPlacement(), gamma=GAMMA
        )
        report = cluster.client.adapt("f")
        for move in report.moves:
            assert move.destination != cluster.ids.id_of("n2")
