"""Tests for cluster assembly and configuration."""

import dataclasses

import pytest

from repro.availability.generator import HostAvailability, build_group_hosts, count_unstable
from repro.experiments.config import SimulationConfig
from repro.mapreduce.job import JobConf, MapJob
from repro.runtime.cluster import ClusterConfig, build_cluster
from repro.util.units import MB, mbit_per_s


class TestClusterConfig:
    def test_defaults_match_table3(self):
        config = ClusterConfig()
        assert config.bandwidth_mbps == 8.0
        assert config.block_size_bytes == 64 * MB

    def test_link_rates(self):
        config = ClusterConfig(bandwidth_mbps=4.0)
        assert config.link_bps == pytest.approx(mbit_per_s(4.0))
        network = build_cluster(build_group_hosts(2, 0.5), config).network
        assert network.nominal_rate_bps == config.link_bps

    def test_nominal_fetch(self):
        # Speculation reads a block's uncontended fetch time off the host
        # link rate: 64 MB at 8 Mb/s.
        config = ClusterConfig(bandwidth_mbps=8.0)
        cluster = build_cluster(build_group_hosts(2, 0.5), config)
        f = cluster.client.copy_from_local("in", num_blocks=1, gamma=1.0)
        task = MapJob.uniform(JobConf(), f, 1.0).tasks[0]
        assert cluster.jobtracker._speculation.fetch_seconds(task) == pytest.approx(
            67.1, abs=0.2
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterConfig(bandwidth_mbps=0.0)
        with pytest.raises(ValueError):
            ClusterConfig(detection="psychic")


class TestBuildCluster:
    def test_full_assembly(self):
        hosts = build_group_hosts(8, 0.5)
        cluster = build_cluster(hosts, ClusterConfig(seed=1))
        assert cluster.node_count == 8
        assert cluster.total_slots == 8
        assert cluster.namenode.datanode_ids == sorted(
            cluster.ids.id_of(h.host_id) for h in hosts
        )
        assert cluster.node_names == sorted(h.host_id for h in hosts)
        assert cluster.heartbeats is not None  # default detection

    def test_oracle_mode_has_no_heartbeats(self):
        hosts = build_group_hosts(4, 0.5)
        cluster = build_cluster(hosts, ClusterConfig(seed=1, detection="oracle"))
        assert cluster.heartbeats is None

    def test_oracle_estimates_pinned(self):
        hosts = build_group_hosts(8, 1.0)
        cluster = build_cluster(hosts, ClusterConfig(seed=1, oracle_estimates=True))
        est = cluster.namenode.predictor.estimate(cluster.ids.id_of(hosts[0].host_id))
        assert est.mtbi == pytest.approx(hosts[0].mtbi)

    def test_estimated_mode_starts_at_prior(self):
        # The prior is PerformancePredictor's default MTBI (1e6 s).
        hosts = build_group_hosts(4, 1.0)
        cluster = build_cluster(hosts, ClusterConfig(seed=1, oracle_estimates=False))
        est = cluster.namenode.predictor.estimate(cluster.ids.id_of(hosts[0].host_id))
        assert est.mtbi == pytest.approx(1e6, rel=0.01)

    def test_oracle_detection_marks_dead_instantly(self):
        hosts = build_group_hosts(2, 1.0)  # both interrupted (MTBI 10-20s)
        cluster = build_cluster(hosts, ClusterConfig(seed=3, detection="oracle"))
        cluster.sim.run(until=100.0)
        # At some point during the window, state changes were mirrored:
        # after running, believed liveness equals physical state.
        for host in hosts:
            nid = cluster.ids.id_of(host.host_id)
            assert cluster.namenode.is_live(nid) == (
                not cluster.injector.is_down(nid)
            )

    def test_duplicate_host_ids_rejected(self):
        hosts = [HostAvailability(host_id="x"), HostAvailability(host_id="x")]
        with pytest.raises(ValueError, match="unique"):
            build_cluster(hosts, ClusterConfig())

    def test_empty_hosts_rejected(self):
        with pytest.raises(ValueError):
            build_cluster([], ClusterConfig())

    def test_trace_mismatch_rejected(self):
        from repro.availability.traces import AvailabilityTrace

        hosts = [HostAvailability(host_id="a")]
        traces = [AvailabilityTrace("b", 100.0, ())]
        with pytest.raises(ValueError, match="parallel"):
            build_cluster(hosts, ClusterConfig(), traces=traces)

    def test_failure_streams_keyed_by_node_id(self):
        # The same host id must see the same interruption times regardless
        # of the rest of the population (policy-comparison invariant).
        def first_down_time(n):
            hosts = build_group_hosts(n, 1.0)
            cluster = build_cluster(hosts, ClusterConfig(seed=9, detection="oracle"))
            cluster.sim.run(until=50.0)
            return cluster.injector.episode_count(cluster.ids.id_of("node-00000"))

        assert first_down_time(2) == first_down_time(6)


class TestBuildKernel:
    """Bulk build path: pregeneration, bulk wiring, build profile."""

    @staticmethod
    def _event_sequence(cluster, until):
        from repro.simulator.events import NodeDown, NodeUp, Phase

        seq = []
        cluster.bus.subscribe(
            NodeDown, lambda e: seq.append(("down", e.node_id, e.time)), Phase.ACCOUNTING
        )
        cluster.bus.subscribe(
            NodeUp, lambda e: seq.append(("up", e.node_id, e.time)), Phase.ACCOUNTING
        )
        while cluster.sim.now < until and cluster.sim.step():
            pass
        cluster.stop()
        return seq

    @pytest.mark.parametrize(
        "law,node_count,until,knobs",
        [
            pytest.param("lognormal", 40, 3000.0, {}, id="lognormal"),
            pytest.param("exponential", 40, 3000.0, {}, id="exponential"),
            # Deterministic recovery runs the generic fold.
            pytest.param("deterministic", 40, 3000.0, {}, id="deterministic"),
            pytest.param(
                "lognormal", 300, 500.0, {"detection": "oracle"}, id="lognormal-300-hosts-oracle"
            ),
        ],
    )
    def test_pregen_build_byte_identical_to_lazy(self, law, node_count, until, knobs):
        hosts = build_group_hosts(node_count, 0.8, service_distribution=law)
        config = ClusterConfig(seed=7, stationary_burn_in=200.0, **knobs)
        lazy = self._event_sequence(build_cluster(hosts, config), until)
        pregen = self._event_sequence(
            build_cluster(hosts, dataclasses.replace(config, pregen_horizon=until + 1000.0)),
            until,
        )
        assert lazy == pregen
        assert len(lazy) > 50

    def test_build_profile_populated(self):
        hosts = build_group_hosts(20, 0.5)
        cluster = build_cluster(hosts, ClusterConfig(seed=1, pregen_horizon=1000.0))
        profile = cluster.build_profile
        assert profile is not None
        assert profile.pregen_seconds > 0.0
        assert profile.object_construction_seconds > 0.0
        assert profile.bus_wiring_seconds >= 0.0
        assert profile.total_seconds >= profile.pregen_seconds
        assert profile.as_dict()["pregen_seconds"] == round(profile.pregen_seconds, 4)
        cluster.stop()

    def test_build_profile_counts_unstable_hosts(self):
        hosts = SimulationConfig(node_count=24, seed=1).hosts()
        unstable = [h for h in hosts if h.arrival_rate * h.service_mean >= 1.0]
        assert count_unstable(hosts) == len(unstable) == 16
        cluster = build_cluster(hosts, ClusterConfig(seed=1))
        assert cluster.build_profile.unstable_hosts == 16
        assert cluster.build_profile.as_dict()["unstable_hosts"] == 16
        cluster.stop()
        stable = build_cluster(build_group_hosts(8, 1.0), ClusterConfig(seed=1))
        assert stable.build_profile.unstable_hosts == 0
        stable.stop()

    def test_lazy_names_render_at_reporting_boundary(self):
        # Per-host agents carry only the dense int id; host names render
        # from the id table when a report asks for them.
        hosts = build_group_hosts(4, 0.5)
        cluster = build_cluster(hosts, ClusterConfig(seed=1))
        for node_id in cluster.node_ids:
            assert cluster.datanodes[node_id].node_id == node_id
            assert cluster.trackers[node_id].node_id == node_id
        assert cluster.node_ids == list(range(len(hosts)))
        assert cluster.node_names == [host.host_id for host in hosts]
        cluster.stop()

    def test_config_validation(self):
        # A non-finite horizon would never stop a prefix: rejected up front.
        for horizon in (float("nan"), float("inf"), -1.0):
            with pytest.raises(ValueError, match="pregen_horizon"):
                ClusterConfig(pregen_horizon=horizon)


class TestPregenHorizonContract:
    """A job that outlives ``pregen_horizon`` fails loudly, not skewed."""

    @staticmethod
    def _run(horizon):
        from repro.runtime.runner import run_map_phase

        hosts = build_group_hosts(4, 0.5)
        config = ClusterConfig(seed=1, detection="oracle", pregen_horizon=horizon)
        return run_map_phase(hosts, config, "random", blocks_per_node=1.0)

    def test_job_past_horizon_raises(self):
        with pytest.raises(RuntimeError, match=r"finished at t=\d.* past pregen_horizon=10\.0 s"):
            self._run(10.0)

    def test_horizon_past_job_runs(self):
        result = self._run(1000.0)
        assert 10.0 < result.elapsed < 1000.0
        assert result == self._run(None)
