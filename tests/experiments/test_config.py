"""Tests for experiment configurations (Tables 2, 3, 4 defaults)."""

import dataclasses

import pytest

from repro.experiments.config import (
    EMULATION_STRATEGIES,
    SIMULATION_STRATEGIES,
    EmulationConfig,
    SimulationConfig,
    Strategy,
)
from repro.experiments.parallel import CellSpec, cell_cache_key
from repro.runtime.cluster import ClusterConfig
from repro.util.units import MB

#: Each config's fields. ``cell_cache_key`` hashes ``dataclasses.asdict``
#: of the config and bench records compare it, so a field added, dropped
#: or renamed here moves every cached cell.
EMULATION_FIELDS = [
    "access_during_downtime",
    "bandwidth_mbps",
    "block_size_bytes",
    "blocks_per_node",
    "detection",
    "fair_sharing",
    "fetch_retries",
    "interrupted_ratio",
    "link_mitigation",
    "node_count",
    "oracle_estimates",
    "oversubscription",
    "permanent_failure_horizon",
    "permanent_failure_rate",
    "rack_aware_placement",
    "racks",
    "replication_monitor",
    "seed",
    "speculation_enabled",
    "topology",
]
SIMULATION_FIELDS = [
    "access_during_downtime",
    "bandwidth_mbps",
    "block_size_bytes",
    "detection",
    "duration_within_cov",
    "fair_sharing",
    "heartbeat_interval",
    "heartbeat_miss_threshold",
    "link_mitigation",
    "node_count",
    "oracle_estimates",
    "oversubscription",
    "placement_liveness_filter",
    "rack_aware_placement",
    "racks",
    "seed",
    "speculation_enabled",
    "stationary_burn_in",
    "tasks_per_node",
    "topology",
]

#: For each non-bool field an experiment config shares with ClusterConfig,
#: a valid value equal to neither config's default.
NON_DEFAULT = {
    "bandwidth_mbps": 16.0,
    "block_size_bytes": 32 * MB,
    "seed": 7,
    "detection": "oracle",
    "heartbeat_interval": 7.0,
    "heartbeat_miss_threshold": 4,
    "stationary_burn_in": 5.0,
    "fetch_retries": 5,
    "permanent_failure_rate": 0.25,
    "permanent_failure_horizon": 900.0,
    "topology": "clos",
    "racks": 3,
    "oversubscription": 2.0,
    "link_mitigation": "do-nothing",
}


class TestStrategy:
    def test_label(self):
        assert Strategy("adapt", 1).label == "adapt (1 replica)"
        assert Strategy("existing", 2).label == "existing (2 replicas)"

    def test_key(self):
        assert Strategy("adapt", 2).key == "adaptx2"

    def test_validation(self):
        with pytest.raises(ValueError):
            Strategy("adapt", 0)

    def test_paper_series(self):
        assert [s.key for s in EMULATION_STRATEGIES] == [
            "existingx1",
            "adaptx1",
            "existingx2",
            "adaptx2",
        ]
        assert "existingx3" in [s.key for s in SIMULATION_STRATEGIES]
        assert "naivex1" in [s.key for s in SIMULATION_STRATEGIES]


class TestEmulationConfig:
    def test_table3_defaults(self):
        config = EmulationConfig()
        assert config.node_count == 128
        assert config.interrupted_ratio == 0.5
        assert config.bandwidth_mbps == 8.0
        assert config.block_size_bytes == 64 * MB
        assert config.blocks_per_node == 20.0

    def test_hosts_table2_split(self):
        hosts = EmulationConfig(node_count=32).hosts()
        groups = {}
        for host in hosts:
            groups[host.group] = groups.get(host.group, 0) + 1
        assert groups["dedicated"] == 16
        assert all(groups[f"group-{i}"] == 4 for i in range(1, 5))

    def test_with_override(self):
        config = EmulationConfig().with_(bandwidth_mbps=4.0)
        assert config.bandwidth_mbps == 4.0
        assert config.node_count == 128  # untouched

    def test_cluster_config_seed_override(self):
        config = EmulationConfig(seed=5)
        assert config.cluster_config().seed == 5
        assert config.cluster_config(seed=9).seed == 9

    def test_emulation_keeps_liveness_filter(self):
        # Testbed semantics: ingest only targets live nodes.
        assert EmulationConfig().cluster_config().placement_liveness_filter

    def test_validation(self):
        with pytest.raises(ValueError):
            EmulationConfig(node_count=0)
        with pytest.raises(ValueError):
            EmulationConfig(interrupted_ratio=2.0)

    @pytest.mark.parametrize("config_type", [EmulationConfig, SimulationConfig])
    @pytest.mark.parametrize("count", [10.0, True, False])
    def test_node_count_must_be_an_int(self, config_type, count):
        # A float used to construct and then crash in host generation; a
        # bool built a 1-node cluster. A ValueError is what the CLI reports
        # as a usage error.
        with pytest.raises(ValueError, match="node_count"):
            config_type(node_count=count)


class TestSimulationConfig:
    def test_table4_defaults(self):
        config = SimulationConfig()
        assert config.node_count == 8196  # the paper's (sic) Table 4 value
        assert config.bandwidth_mbps == 8.0
        assert config.block_size_bytes == 64 * MB
        assert config.tasks_per_node == 100.0

    def test_hadoop_realistic_detection(self):
        config = SimulationConfig().cluster_config()
        assert config.detection == "heartbeat"
        assert config.heartbeat_interval * config.heartbeat_miss_threshold == 600.0

    def test_trace_window_semantics(self):
        cc = SimulationConfig().cluster_config()
        assert cc.stationary_burn_in > 0
        assert not cc.placement_liveness_filter
        assert not cc.fair_sharing  # fixed-cost migration model

    def test_hosts_seed_stable(self):
        config = SimulationConfig(node_count=16)
        a = config.hosts(seed=3)
        b = config.hosts(seed=3)
        assert [h.mtbi for h in a] == [h.mtbi for h in b]

    def test_hosts_differ_by_seed(self):
        config = SimulationConfig(node_count=16)
        assert [h.mtbi for h in config.hosts(seed=1)] != [
            h.mtbi for h in config.hosts(seed=2)
        ]

    def test_seti_params_pinned_for_default_cov(self):
        from repro.availability.seti import CALIBRATED_TABLE1_PARAMS

        assert SimulationConfig().seti_params() is CALIBRATED_TABLE1_PARAMS

    def test_seti_params_closed_form_otherwise(self):
        params = SimulationConfig(duration_within_cov=1.0).seti_params()
        assert params.duration_within_cov == 1.0


class TestConfigRecords:
    """What a refactor of the config classes must not move."""

    def test_field_names(self):
        assert sorted(f.name for f in dataclasses.fields(EmulationConfig)) == EMULATION_FIELDS
        assert sorted(f.name for f in dataclasses.fields(SimulationConfig)) == SIMULATION_FIELDS

    @pytest.mark.parametrize(
        "kind,config,key",
        [
            (
                "emulation",
                EmulationConfig(),
                "bdc2d0e8b78addafebd0a6e864055303222a945909efc2e2886b7d1c8a4e29ce",
            ),
            (
                "simulation",
                SimulationConfig(),
                "8c72cae46b5c1b5dece55f154a86697c9aa2ff0fc7e05cb44751fd79fa49eedf",
            ),
        ],
        ids=["emulation", "simulation"],
    )
    def test_cache_keys_pinned(self, kind, config, key):
        spec = CellSpec(kind, config, Strategy("adapt", 1), 0)
        assert cell_cache_key(spec, salt="adapt-cells-v1") == key

    @pytest.mark.parametrize("cls", [EmulationConfig, SimulationConfig])
    def test_cluster_config_carries_every_shared_field(self, cls):
        cluster_defaults = {f.name: f.default for f in dataclasses.fields(ClusterConfig)}
        shared = [f for f in dataclasses.fields(cls) if f.name in cluster_defaults]
        assert len(shared) == 17
        for f in shared:
            if isinstance(f.default, bool):
                values = (True, False)  # one of them differs from ClusterConfig's
            else:
                values = (NON_DEFAULT[f.name],)
                assert values[0] not in (f.default, cluster_defaults[f.name]), f.name
            for value in values:
                carried = cls().with_(**{f.name: value}).cluster_config()
                assert getattr(carried, f.name) == value, f.name
