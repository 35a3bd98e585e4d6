"""Lifecycle and wiring tests for the bus-driven cluster.

Covers the combinations the refactor made first-class: oracle detection
feeding the replication monitor through belief events, `Cluster.stop()`
disarming every event via the service registry, and the registry holding
every subsystem.
"""

import pytest

from repro.availability.generator import build_group_hosts
from repro.core.placement import RandomPlacement
from repro.mapreduce.job import JobConf, MapJob
from repro.mapreduce.jobtracker import JobTracker
from repro.mapreduce.tasktracker import TaskTracker
from repro.runtime.cluster import ClusterConfig, build_cluster
from repro.runtime.services import Service
from repro.simulator.engine import Simulator
from repro.simulator.events import NodeDeclaredDead, NodeDown, Phase
from repro.simulator.metrics import MapPhaseMetrics
from repro.simulator.network import Network


def live_events(sim):
    """Uncancelled entries queued in the simulator heap."""
    return sim.pending_events - sim.cancelled_pending


def _monitor_config(**overrides):
    base = dict(
        seed=5,
        replication_monitor=True,
        permanent_failure_rate=0.5,
        permanent_failure_horizon=60.0,
    )
    base.update(overrides)
    return ClusterConfig(**base)


class TestOracleWithMonitor:
    def test_oracle_detection_feeds_monitor(self):
        hosts = build_group_hosts(8, 1.0)
        cluster = build_cluster(hosts, _monitor_config(detection="oracle"))
        assert cluster.detector is not None
        assert cluster.heartbeats is None
        assert cluster.monitor is not None
        declared = []
        cluster.bus.subscribe(
            NodeDeclaredDead, lambda e: declared.append(e.node_id), Phase.SCHEDULING
        )
        cluster.sim.run(until=120.0)
        # The oracle declares every physical interruption instantly, so the
        # belief stream is non-empty and the monitor reacted to each event.
        assert declared
        info = cluster.detector.describe()
        assert info["deaths_declared"] == len(declared)
        # Permanent failures were purged through the belief path: the wiped
        # nodes no longer appear in the monitor's tracked queue state and
        # the durability metrics saw the wipes.
        assert cluster.durability.permanent_failures > 0

    def test_oracle_and_heartbeat_reach_same_monitor_api(self):
        # Both detectors publish the same belief events; the monitor wiring
        # is identical in the two modes (interchangeability contract).
        hosts = build_group_hosts(4, 1.0)
        oracle = build_cluster(hosts, _monitor_config(detection="oracle"))
        heartbeat = build_cluster(hosts, _monitor_config(detection="heartbeat"))
        for cluster in (oracle, heartbeat):
            assert cluster.bus.handler_count(NodeDeclaredDead) >= 2  # monitor + jobtracker
            assert cluster.monitor is not None


class TestStopDrainsHeap:
    def test_stop_with_monitor_lets_heap_drain(self):
        hosts = build_group_hosts(8, 1.0)
        cluster = build_cluster(hosts, _monitor_config())
        cluster.sim.run(until=90.0)
        cluster.stop()
        # Nothing stays armed after a full stop: the injector's episodes,
        # beats and watchdogs and the monitor's retries are all cancelled,
        # so only dead entries remain and the heap empties firing nothing.
        assert live_events(cluster.sim) == 0
        assert cluster.sim.run() == 0
        assert cluster.sim.pending_events == 0

    def test_stop_with_oracle_lets_heap_drain(self):
        hosts = build_group_hosts(6, 1.0)
        cluster = build_cluster(hosts, _monitor_config(detection="oracle"))
        cluster.sim.run(until=50.0)
        cluster.stop()
        assert live_events(cluster.sim) == 0
        assert cluster.sim.run() == 0
        assert cluster.sim.pending_events == 0

    def test_stop_mid_job_leaves_no_live_event(self, wiring_config):
        # Every supported wiring, stopped with a job's attempts, fetches,
        # sweeps and re-replications in flight.
        cluster = build_cluster(build_group_hosts(6, 0.5), wiring_config)
        cluster.sim.run(until=0.0)
        dfs_file = cluster.client.copy_from_local(
            "in", num_blocks=24, replication=2, policy=RandomPlacement(), gamma=10.0
        )
        cluster.jobtracker.submit(MapJob.uniform(JobConf(), dfs_file, 10.0))
        cluster.sim.run(until=30.0)
        assert not cluster.jobtracker.is_done
        cluster.stop()
        assert live_events(cluster.sim) == 0
        assert cluster.sim.run() == 0

    def test_stop_is_idempotent(self):
        hosts = build_group_hosts(4, 0.5)
        cluster = build_cluster(hosts, ClusterConfig(seed=2))
        cluster.stop()
        cluster.stop()  # second stop must not raise


class TestServiceRegistryWiring:
    def test_every_subsystem_registered(self):
        hosts = build_group_hosts(4, 0.5)
        cluster = build_cluster(hosts, _monitor_config(trace_events=True))
        names = cluster.services.names
        assert "network" in names
        assert "failure-injector" in names
        assert "durability-pipeline" in names
        assert "heartbeat-detector" in names
        assert "replication-monitor" in names
        assert "jobtracker" in names
        assert "trace-recorder" in names
        for host in hosts:
            assert f"tasktracker:{host.host_id}" in names
        # Consumers registered after producers: stop_all (reverse order)
        # then tears down schedulers before the network they publish into.
        assert names.index("jobtracker") > names.index("network")

    def test_registered_objects_satisfy_protocol(self):
        hosts = build_group_hosts(3, 0.5)
        cluster = build_cluster(hosts, ClusterConfig(seed=1))
        for service in cluster.services:
            assert isinstance(service, Service)

    def test_describe_all_returns_one_row_per_service(self):
        hosts = build_group_hosts(3, 0.5)
        cluster = build_cluster(hosts, ClusterConfig(seed=1))
        rows = cluster.services.describe_all()
        assert len(rows) == len(cluster.services)
        assert all(isinstance(row, dict) for row in rows)

    def test_no_inline_lambdas_in_wiring(self):
        # The refactor's contract: bus wiring is named-method subscriptions
        # only, so dispatch order is readable from the phase table. Every
        # build stage is held to it, not just build_cluster.
        import inspect

        from repro.runtime import cluster as cluster_module

        stages = (
            cluster_module.build_cluster,
            cluster_module._timed,
            cluster_module._assemble,
            cluster_module._construct,
            cluster_module._wire,
            cluster_module._attach_availability,
            cluster_module._arm_permanent_failures,
            cluster_module._register_services,
        )
        for stage in stages:
            assert "lambda" not in inspect.getsource(stage), stage.__name__


class TestConfigValidation:
    """The link, re-poll and fetch-backoff tunables are constructor
    defaults of the components that use them, which validate them."""

    def test_link_rate_rejected_when_nonpositive(self):
        for bad in (0.0, -4.0):
            with pytest.raises(ValueError, match="link_bps"):
                Network(Simulator(), link_bps=bad)
        assert Network(Simulator(), link_bps=1.0).nominal_rate_bps == 1.0

    def test_heartbeat_interval_rejected_when_nonpositive(self):
        with pytest.raises(ValueError, match="heartbeat_interval"):
            ClusterConfig(heartbeat_interval=0.0)
        with pytest.raises(ValueError, match="heartbeat_interval"):
            ClusterConfig(heartbeat_interval=-1.0)

    def test_sweep_interval_rejected_when_nonpositive(self):
        cluster = build_cluster(build_group_hosts(2, 0.5), ClusterConfig(seed=1))
        with pytest.raises(ValueError, match="sweep_interval"):
            JobTracker(
                cluster.sim,
                cluster.namenode,
                cluster.network,
                cluster.trackers,
                cluster.metrics,
                sweep_interval=0.0,
            )

    def test_fetch_backoff_rejected_when_nonpositive(self):
        sim = Simulator()
        network = Network(sim, link_bps=1.0)
        for bad in (0.0, -0.5):
            with pytest.raises(ValueError, match="fetch_backoff"):
                TaskTracker(sim, 0, network, MapPhaseMetrics(), fetch_backoff=bad)

    def test_valid_config_accepted(self):
        config = ClusterConfig(heartbeat_interval=1.0, fetch_retries=0)
        assert config.heartbeat_interval == 1.0


class TestBusObservability:
    def test_node_down_events_flow_through_bus(self):
        hosts = build_group_hosts(6, 1.0)
        cluster = build_cluster(hosts, ClusterConfig(seed=4, detection="oracle"))
        downs = []
        cluster.bus.subscribe(NodeDown, lambda e: downs.append(e.node_id), Phase.SCHEDULING)
        cluster.sim.run(until=60.0)
        assert len(downs) == cluster.metrics.interruptions
        assert cluster.bus.published_count >= len(downs)
