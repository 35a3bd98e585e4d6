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
        # Zero lag: the NameNode's belief is each node's physical state.
        for node_id, datanode in cluster.datanodes.items():
            assert cluster.namenode.is_live(node_id) == datanode.is_up
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

    def test_second_start_is_harmless(self):
        # build_cluster already started the cluster. A second start must
        # not arm a second audit cadence: four audits by t = 100 s at the
        # 25 s interval, and nothing left armed after stop.
        hosts = build_group_hosts(4, 0.5)
        config = ClusterConfig(seed=1, detection="oracle", audit="report")
        cluster = build_cluster(hosts, config)
        cluster.start()
        cluster.sim.run(until=100.0)
        assert cluster.auditor is not None
        assert cluster.auditor.report.audits_run == 4
        cluster.stop()
        assert live_events(cluster.sim) == 0


class TestServiceRegistryWiring:
    def test_every_subsystem_registered(self):
        hosts = build_group_hosts(4, 0.5)
        cluster = build_cluster(hosts, _monitor_config(trace_events=True))
        position = {id(service): index for index, service in enumerate(cluster.services)}
        subsystems = [
            cluster.network,
            cluster.injector,
            cluster.pipeline,
            cluster.heartbeats,
            cluster.monitor,
            cluster.jobtracker,
            cluster.tracer,
            *cluster.datanodes.values(),
            *cluster.trackers.values(),
        ]
        for subsystem in subsystems:
            assert id(subsystem) in position, subsystem
        # Consumers registered after producers: stop_all (reverse order)
        # then tears down schedulers before the network they publish into.
        assert position[id(cluster.jobtracker)] > position[id(cluster.network)]

    def test_registered_objects_satisfy_protocol(self):
        hosts = build_group_hosts(3, 0.5)
        cluster = build_cluster(hosts, ClusterConfig(seed=1))
        for service in cluster.services:
            assert isinstance(service, Service)

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
