"""Experiment configurations: the paper's Tables 2, 3, and 4 as defaults.

``EmulationConfig`` captures Section V.A/V.B (the Magellan emulation
driving Figures 3 and 4): Table 3 defaults — 64 MB blocks, half the nodes
interrupted (Table 2 groups), 8 Mb/s, 128 nodes, 20 blocks per node.

``SimulationConfig`` captures Section V.C (Figure 5): Table 4 defaults —
8 Mb/s, 64 MB blocks, 8196 nodes, 100 tasks per node, 12 s failure-free
task time, with hosts drawn from the Table-1-calibrated SETI@home model.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import List, Optional, TypeVar

from repro.availability.generator import HostAvailability, build_group_hosts
from repro.availability.seti import CALIBRATED_TABLE1_PARAMS, SetiTraceGenerator
from repro.runtime.cluster import ClusterConfig
from repro.util.rng import RandomSource
from repro.util.units import MB
from repro.util.validation import check_count, check_positive, check_probability


@dataclass(frozen=True)
class Strategy:
    """One plotted series: a placement policy at a replication degree."""

    policy: str
    replication: int

    def __post_init__(self) -> None:
        if self.replication < 1:
            raise ValueError("replication must be >= 1")

    @property
    def label(self) -> str:
        noun = "replica" if self.replication == 1 else "replicas"
        return f"{self.policy} ({self.replication} {noun})"

    @property
    def key(self) -> str:
        return f"{self.policy}x{self.replication}"


#: Figure 3/4 series: existing vs ADAPT at 1 and 2 replicas (Section V.B).
EMULATION_STRATEGIES: List[Strategy] = [
    Strategy("existing", 1),
    Strategy("adapt", 1),
    Strategy("existing", 2),
    Strategy("adapt", 2),
]

#: Figure 5 series: existing x{1,2,3}, naive x1, ADAPT x{1,2} (Section V.C).
SIMULATION_STRATEGIES: List[Strategy] = [
    Strategy("existing", 1),
    Strategy("existing", 2),
    Strategy("existing", 3),
    Strategy("naive", 1),
    Strategy("adapt", 1),
    Strategy("adapt", 2),
]


@dataclass(frozen=True)
class ExperimentConfigBase:
    """What both experiment configs share: the knobs they carry with the
    same default, their common checks, ``with_`` and ``cluster_config``."""

    bandwidth_mbps: float = 8.0
    block_size_bytes: int = 64 * MB
    seed: int = 0
    detection: str = "heartbeat"
    oracle_estimates: bool = True
    speculation_enabled: bool = True
    #: Network topology (see ClusterConfig): "flat" or "clos", with rack
    #: count and trunk oversubscription; rack_aware_placement enforces the
    #: HDFS off-rack replica rule on ingest. Fixed-cost transfers still
    #: take the path min, so an oversubscribed Clos trunk can bind.
    topology: str = "flat"
    racks: int = 1
    oversubscription: float = 1.0
    rack_aware_placement: bool = False
    #: Response to DegradedLink chaos windows ("none" disables).
    link_mitigation: str = "none"

    def __post_init__(self) -> None:
        # Every field ClusterConfig also declares is checked there, once,
        # so a bad value is rejected here rather than when a run builds.
        self.cluster_config()

    def with_(self: _Config, **overrides: object) -> _Config:
        """Immutable update (sweep axes replace one field at a time)."""
        return replace(self, **overrides)  # type: ignore[arg-type]

    def cluster_config(self, seed: Optional[int] = None) -> ClusterConfig:
        """The deployment this experiment runs: every field ClusterConfig
        also declares is copied by name; ``seed`` overrides the config's."""
        shared = {f.name: getattr(self, f.name) for f in fields(self) if f.name in _CLUSTER_FIELDS}
        shared["seed"] = self.seed if seed is None else seed
        return ClusterConfig(**shared)


_Config = TypeVar("_Config", bound=ExperimentConfigBase)
_CLUSTER_FIELDS = frozenset(f.name for f in fields(ClusterConfig))


@dataclass(frozen=True)
class EmulationConfig(ExperimentConfigBase):
    """Table 3 defaults for the emulated environment (Figures 3 & 4)."""

    node_count: int = 128
    interrupted_ratio: float = 0.5
    blocks_per_node: float = 20.0
    fair_sharing: bool = True
    #: Durability pipeline knobs (see ClusterConfig): heal under-replicated
    #: blocks, and optionally destroy nodes for good during the run.
    replication_monitor: bool = False
    permanent_failure_rate: float = 0.0
    permanent_failure_horizon: float = 600.0
    fetch_retries: int = 2

    def __post_init__(self) -> None:
        check_count("node_count", self.node_count)
        check_probability("interrupted_ratio", self.interrupted_ratio)
        super().__post_init__()
        check_positive("blocks_per_node", self.blocks_per_node)

    def hosts(self) -> List[HostAvailability]:
        """The Table 2 host population at this config's size and ratio."""
        return build_group_hosts(self.node_count, self.interrupted_ratio)


@dataclass(frozen=True)
class SimulationConfig(ExperimentConfigBase):
    """Table 4 defaults for the large-scale simulation (Figure 5).

    The network uses the fixed-cost transfer model (``fair_sharing=False``,
    one block always costs blocksize/bandwidth), matching the granularity
    of the paper's own discrete-event simulator; the emulation config keeps
    the full contention model. Failures are detected by heartbeats at
    Hadoop's cadence: one every 60 s, and a node is declared dead after
    10 misses.
    """

    node_count: int = 8196
    tasks_per_node: float = 100.0
    #: Hadoop-realistic failure detection: heartbeats every 60 s, a node is
    #: declared dead after 10 misses (~600 s, Hadoop's task/TaskTracker
    #: expiry). Fast oracle detection hides most of the paper's misc cost.
    heartbeat_interval: float = 60.0
    heartbeat_miss_threshold: int = 10
    fair_sharing: bool = False
    #: Start each host mid-trace (stationary window) rather than fresh-up;
    #: ~10^7 s of burn-in is several population MTBIs.
    stationary_burn_in: float = 1.0e7
    #: Input data was loaded into the DFS well before the measured job, so
    #: placement cannot condition on momentary liveness — only on the
    #: long-run availability statistics ADAPT models (Section III).
    placement_liveness_filter: bool = False

    def __post_init__(self) -> None:
        check_count("node_count", self.node_count)
        super().__post_init__()
        check_positive("tasks_per_node", self.tasks_per_node)

    def hosts(self, seed: Optional[int] = None) -> List[HostAvailability]:
        """Draw the SETI host population from the pinned Table 1
        calibration (host k is seed-stable)."""
        generator = SetiTraceGenerator(
            CALIBRATED_TABLE1_PARAMS,
            RandomSource(self.seed if seed is None else seed).substream("seti"),
        )
        return generator.sample_hosts(self.node_count)
