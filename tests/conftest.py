"""Shared fixtures for the test suite."""

from __future__ import annotations

from typing import Dict

import pytest

from repro.runtime.cluster import ClusterConfig
from repro.simulator.scenarios import (
    ChaosCampaign,
    DegradedLink,
    DelayedRecovery,
    FailureStorm,
    FlappingNode,
    GrayNode,
    NetworkPartition,
)
from repro.util.rng import RandomSource

#: The supported wiring configurations, by name. Together they reach
#: every subscribe site in ``runtime/cluster.py``.
WIRING_CONFIGS: Dict[str, ClusterConfig] = {
    # Heartbeat detection, the replication monitor, tracing, the auditor
    # and permanent failures.
    "full": ClusterConfig(
        seed=3,
        detection="heartbeat",
        replication_monitor=True,
        trace_events=True,
        audit="report",
        permanent_failure_rate=0.2,
    ),
    # The oracle-detection wiring instead of heartbeats.
    "oracle": ClusterConfig(seed=3, detection="oracle"),
    # The chaos-engine wiring (partitions, degradation, metrics).
    "chaos": ClusterConfig(
        seed=3,
        detection="heartbeat",
        chaos=ChaosCampaign(
            name="wiring",
            scenarios=(NetworkPartition(start=10.0, duration=5.0, count=1),),
        ),
    ),
    # The Clos fabric plus the degraded-link mitigation wiring.
    "degraded": ClusterConfig(
        seed=3,
        detection="oracle",
        topology="clos",
        racks=2,
        link_mitigation="do-nothing",
        chaos=ChaosCampaign(
            name="wiring-degraded",
            scenarios=(
                DegradedLink(start=10.0, duration=5.0, count=1, capacity_factor=0.5),
            ),
        ),
    ),
    # Kitchen-sink Clos config: rack-aware placement, heartbeat detection,
    # the replication monitor, retransmit-tax link mitigation, and a chaos
    # campaign spanning every scenario primitive — the widest wiring any
    # single supported configuration can reach.
    "clos-full": ClusterConfig(
        seed=3,
        detection="heartbeat",
        replication_monitor=True,
        topology="clos",
        racks=2,
        rack_aware_placement=True,
        link_mitigation="retransmit-tax",
        trace_events=True,
        audit="report",
        chaos=ChaosCampaign(
            name="wiring-clos-full",
            scenarios=(
                FailureStorm(start=5.0, duration=4.0, count=2),
                FlappingNode(start=12.0, cycles=2, down_time=1.0, up_time=1.0, count=1),
                NetworkPartition(start=20.0, duration=5.0, count=1, isolate_heartbeats=True),
                GrayNode(start=28.0, duration=4.0, link_factor=0.5, exec_factor=2.0, count=1),
                DegradedLink(start=34.0, duration=4.0, count=1, capacity_factor=0.5),
                DelayedRecovery(start=40.0, duration=5.0, stretch=2.0, count=1),
            ),
        ),
    ),
}


@pytest.fixture(params=list(WIRING_CONFIGS), ids=list(WIRING_CONFIGS))
def wiring_config(request) -> ClusterConfig:
    """Each supported wiring configuration in turn (see WIRING_CONFIGS)."""
    return WIRING_CONFIGS[request.param]


@pytest.fixture
def wiring_configs() -> Dict[str, ClusterConfig]:
    """Every supported wiring configuration, by name."""
    return dict(WIRING_CONFIGS)


@pytest.fixture
def rng() -> RandomSource:
    """A fresh deterministic random source."""
    return RandomSource(12345)


@pytest.fixture
def rng2() -> RandomSource:
    """A second, independent deterministic random source."""
    return RandomSource(67890)
