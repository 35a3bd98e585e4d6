"""End-to-end integration tests across the whole stack."""

from repro.availability.generator import build_group_hosts
from repro.core.placement import AdaptPlacement, RandomPlacement
from repro.mapreduce.job import JobConf, MapJob
from repro.mapreduce.shuffle import ShufflePhase
from repro.runtime.cluster import ClusterConfig, build_cluster
from repro.runtime.runner import run_map_phase
from repro.workloads import TerasortWorkload


class TestClientToJobFlow:
    """copyFromLocal -> run job -> adapt -> run again (the shell workflow)."""

    def test_adapt_command_improves_subsequent_job(self):
        hosts = build_group_hosts(24, 0.5)
        config = ClusterConfig(seed=4)
        workload = TerasortWorkload()
        gamma = workload.gamma_seconds(config.block_size_bytes)

        def run_once(adapt_in_place: bool) -> float:
            cluster = build_cluster(hosts, config, default_gamma=gamma)
            cluster.sim.run(until=0.0)
            f = cluster.client.copy_from_local(
                "in", num_blocks=240, policy=RandomPlacement(), gamma=gamma
            )
            if adapt_in_place:
                report = cluster.client.adapt("in")
                assert report.move_count > 0
            job = MapJob.uniform(JobConf(), f, gamma)
            cluster.jobtracker.submit(job)
            cluster.run_until_job_done()
            return job.makespan

        plain = run_once(adapt_in_place=False)
        adapted = run_once(adapt_in_place=True)
        assert adapted < plain

    def test_copy_from_local_with_flag_matches_policy(self):
        hosts = build_group_hosts(16, 0.5)
        cluster = build_cluster(hosts, ClusterConfig(seed=5))
        cluster.sim.run(until=0.0)
        f = cluster.client.copy_from_local("flagged", num_blocks=160, adapt_enabled=True)
        dist = cluster.client.block_distribution("flagged")
        dedicated = [cluster.ids.id_of(h.host_id) for h in hosts if h.is_dedicated]
        flaky = [cluster.ids.id_of(h.host_id) for h in hosts if not h.is_dedicated]
        assert sum(dist[n] for n in dedicated) > sum(dist[n] for n in flaky)


class TestEstimatedPredictorLoop:
    """Heartbeat-estimated parameters end-to-end (ablation A1 machinery)."""

    def test_estimates_learn_during_warmup(self):
        hosts = build_group_hosts(12, 0.5)
        config = ClusterConfig(seed=6, oracle_estimates=False)
        cluster = build_cluster(hosts, config)
        cluster.sim.run(until=600.0)
        predictor = cluster.namenode.predictor
        flaky = [h for h in hosts if not h.is_dedicated][0]
        stable = [h for h in hosts if h.is_dedicated][0]
        flaky_est = predictor.estimate(cluster.ids.id_of(flaky.host_id))
        stable_est = predictor.estimate(cluster.ids.id_of(stable.host_id))
        # After 10 minutes of heartbeats the flaky node's estimated MTBI
        # must be clearly below the dedicated node's.
        assert flaky_est.mtbi < stable_est.mtbi / 5

    def test_estimated_adapt_still_beats_existing(self):
        hosts = build_group_hosts(24, 0.5)
        config = ClusterConfig(seed=7, oracle_estimates=False)
        existing = run_map_phase(
            hosts, config, "existing", blocks_per_node=8, warmup_seconds=600.0
        )
        adapt = run_map_phase(
            hosts, config, "adapt", blocks_per_node=8, warmup_seconds=600.0
        )
        assert adapt.elapsed < existing.elapsed


class TestMapThenShuffle:
    def test_full_job_with_reduce_phase(self):
        hosts = build_group_hosts(8, 0.0)  # failure-free for determinism
        config = ClusterConfig(seed=8)
        workload = TerasortWorkload()
        gamma = workload.gamma_seconds(config.block_size_bytes)
        cluster = build_cluster(hosts, config, default_gamma=gamma)
        f = cluster.client.copy_from_local("in", num_blocks=16, policy=AdaptPlacement(), gamma=gamma)
        job = MapJob.uniform(JobConf(), f, gamma)
        done = {}

        def start_shuffle(finished_job):
            output_nodes = {
                t.task_id: finished_job.completed_by(t).node_id for t in finished_job.tasks
            }
            reducers = sorted(set(output_nodes.values()))[:4]
            phase = ShufflePhase(cluster.sim, cluster.network)
            phase.run(
                map_output_nodes=output_nodes,
                map_output_bytes=f.size_bytes * workload.map_output_ratio / f.num_blocks,
                reducer_nodes=reducers,
                reduce_gamma=workload.reduce_gamma_seconds(f.size_bytes, 4),
                on_complete=lambda r: done.update(result=r),
            )

        cluster.jobtracker.submit(job, on_complete=start_shuffle)
        cluster.run_until_job_done()
        # Drain the shuffle phase.
        while "result" not in done and cluster.sim.step():
            pass
        assert "result" in done
        assert done["result"].finished_at > job.finished_at


class TestScaleSanity:
    def test_medium_cluster_event_budget(self):
        # A 64-node emulation run must finish within a modest event budget
        # (guards against event-loop explosions creeping in).
        hosts = build_group_hosts(64, 0.5)
        result = run_map_phase(
            hosts, ClusterConfig(seed=9), "adapt", blocks_per_node=10,
            max_events=2_000_000,
        )
        assert result.elapsed > 0
