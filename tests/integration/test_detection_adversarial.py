"""Adversarial detection scenarios driven by chaos primitives.

Three interleavings where what the detector believes and what is
physically true pull apart: a heartbeat-blocking partition racing a real
death, pure belief divergence on a healthy cluster, and speculative
execution rescuing tasks from a gray (degraded-but-alive) node.
"""

from repro.availability.generator import HostAvailability
from repro.availability.traces import AvailabilityTrace
from repro.core.placement import RandomPlacement
from repro.mapreduce.job import JobConf, MapJob
from repro.runtime.cluster import ClusterConfig, build_cluster
from repro.simulator.events import NodeDeclaredDead, NodeReturned, Phase
from repro.simulator.scenarios import ChaosCampaign, GrayNode, NetworkPartition

GAMMA = 10.0
HORIZON = 1_000_000.0


def build(campaign, windows=None, n=3, **kw):
    hosts = [HostAvailability(host_id=f"n{i}") for i in range(n)]
    traces = None
    if windows is not None:
        traces = [
            AvailabilityTrace(f"n{i}", HORIZON, windows.get(i, ())) for i in range(n)
        ]
    config = ClusterConfig(detection="heartbeat", seed=1, chaos=campaign, **kw)
    return build_cluster(hosts, config, traces=traces, default_gamma=GAMMA)


class TestHeartbeatLossVersusTrueDeath:
    def test_partition_then_real_death_resolves_on_physical_return(self):
        # Beats are blocked from t=10; the node is declared dead at t=18
        # while still physically up. It then *really* dies at t=30 (until
        # t=100). When the partition heals at t=70 the node stays silent —
        # it is genuinely down now — so belief only flips back at t=100,
        # with exactly one death and one return observed.
        campaign = ChaosCampaign(
            name="race",
            scenarios=(
                NetworkPartition(
                    start=10.0, duration=60.0, isolate_heartbeats=True, nodes=("n0",)
                ),
            ),
        )
        cluster = build(campaign, windows={0: [(30.0, 100.0)]})
        n0 = cluster.ids.id_of("n0")
        transitions = []
        for event_type, kind in ((NodeDeclaredDead, "dead"), (NodeReturned, "back")):
            cluster.bus.subscribe(
                event_type,
                lambda e, kind=kind: transitions.append((kind, e.node_id, e.time)),
                Phase.ACCOUNTING,
            )
        cluster.sim.run(until=25.0)
        # Believed dead, physically alive: pure detector illusion.
        assert not cluster.namenode.is_live(n0)
        assert not cluster.injector.is_down(n0)
        cluster.sim.run(until=90.0)
        # Partition healed at 70, but the node really is down now.
        assert not cluster.namenode.is_live(n0)
        assert cluster.injector.is_down(n0)
        cluster.sim.run(until=120.0)
        assert cluster.namenode.is_live(n0)
        assert transitions == [("dead", n0, 18.0), ("back", n0, 100.0)]
        cluster.stop()


class TestBeliefDivergence:
    def test_oracle_truth_and_heartbeat_belief_diverge_during_partition(self):
        # Nothing ever physically fails; only beats are lost. The belief
        # map must diverge from the injector's ground truth for the
        # partition's span and reconverge after the first post-heal beat.
        campaign = ChaosCampaign(
            name="divergence",
            scenarios=(
                NetworkPartition(
                    start=20.0, duration=30.0, isolate_heartbeats=True, nodes=("n0", "n1")
                ),
            ),
        )
        cluster = build(campaign, n=4)
        cluster.sim.run(until=45.0)
        for node in (cluster.ids.id_of("n0"), cluster.ids.id_of("n1")):
            assert not cluster.namenode.is_live(node)
            assert not cluster.injector.is_down(node)
        assert cluster.namenode.is_live(cluster.ids.id_of("n2"))
        cluster.sim.run(until=60.0)
        for node in (cluster.ids.id_of("n0"), cluster.ids.id_of("n1")):
            assert cluster.namenode.is_live(node)
            assert not cluster.injector.is_down(node)
        cluster.stop()

    def test_transfer_only_partition_leaves_belief_intact(self):
        # Heartbeats keep flowing (isolate_heartbeats=False): storage
        # traffic stalls but the NameNode never changes its mind.
        campaign = ChaosCampaign(
            name="gray-failure",
            scenarios=(NetworkPartition(start=20.0, duration=30.0, nodes=("n0",)),),
        )
        cluster = build(campaign, n=3)
        cluster.sim.run(until=45.0)
        assert cluster.namenode.is_live(cluster.ids.id_of("n0"))
        assert len(cluster.network._partitions) == 1
        cluster.sim.run(until=60.0)
        assert cluster.network._partitions == {}
        cluster.stop()


class TestSpeculationOnGrayNode:
    def test_speculative_attempt_rescues_tasks_from_gray_node(self):
        # n0 executes at 4x gamma — past the speculation threshold of
        # slowdown(2.0) * (gamma + fetch) — while still heartbeating
        # happily. The stragglers must be speculated away, not waited out.
        # Small blocks keep the fetch term out of the threshold: 1 MB at
        # 8 Mb/s is ~1s, so the threshold is ~2*(10+1)=22s against a 40s
        # gray execution.
        campaign = ChaosCampaign(
            name="gray",
            scenarios=(
                GrayNode(start=0.0, duration=100_000.0, exec_factor=4.0, nodes=("n0",)),
            ),
        )
        cluster = build(campaign, n=3, block_size_bytes=1024 * 1024)
        # Settle the t=0 NodeDegraded before ingest (run_map_phase does the
        # same) so the slowdown is in force when the first attempts start.
        cluster.sim.run(until=0.0)
        f = cluster.client.copy_from_local(
            "in", num_blocks=3, replication=3, policy=RandomPlacement(), gamma=GAMMA
        )
        job = MapJob.uniform(JobConf(), f, GAMMA)
        cluster.jobtracker.submit(job)
        cluster.run_until_job_done()
        assert job.is_complete
        speculated = [a for a in job.attempts if a.speculative]
        assert speculated, "gray-node stragglers never triggered speculation"
        # Every task originally running on the gray node finished elsewhere.
        n0 = cluster.ids.id_of("n0")
        gray_tasks = [
            task
            for task in job.tasks
            if any(a.node_id == n0 for a in job.attempts_of(task))
        ]
        assert gray_tasks
        for task in gray_tasks:
            assert job.completed_by(task).node_id != n0
        assert job.makespan < 4.0 * GAMMA * len(job.tasks)
        cluster.stop()
