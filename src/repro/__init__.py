"""repro: a from-scratch reproduction of ADAPT (ICDCS 2012).

ADAPT — Availability-aware DAta PlacemenT — dispatches MapReduce/HDFS data
blocks in proportion to each host's block-processing efficiency 1/E[T]
under interruptions, improving map-phase time and data locality in
non-dedicated distributed environments without extra replication.

Public entry points
-------------------
* the stochastic model: :func:`repro.core.expected_task_time` and friends;
* placement policies: :func:`repro.core.make_policy`
  (``existing`` / ``naive`` / ``adapt``);
* host populations: :func:`repro.availability.build_group_hosts` (Table 2
  emulation) and :class:`repro.availability.SetiTraceGenerator` (Table 1
  calibrated traces);
* end-to-end runs: :func:`repro.runtime.run_map_phase`;
* paper experiments: :mod:`repro.experiments` (one driver per figure).
"""

from repro.availability import (
    HostAvailability,
    SetiModelParams,
    SetiTraceGenerator,
    build_group_hosts,
    table2_groups,
)
from repro.core import (
    AdaptPlacement,
    NaivePlacement,
    PerformancePredictor,
    RandomPlacement,
    WeightedHashTable,
    expected_task_time,
    make_policy,
)
from repro.hdfs import DfsClient, NameNode
from repro.mapreduce import JobConf, JobTracker, MapJob
from repro.runtime import ClusterConfig, MapPhaseResult, build_cluster, run_map_phase
from repro.workloads import TerasortWorkload

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "expected_task_time",
    "WeightedHashTable",
    "make_policy",
    "RandomPlacement",
    "NaivePlacement",
    "AdaptPlacement",
    "PerformancePredictor",
    "HostAvailability",
    "build_group_hosts",
    "table2_groups",
    "SetiTraceGenerator",
    "SetiModelParams",
    "NameNode",
    "DfsClient",
    "JobConf",
    "MapJob",
    "JobTracker",
    "ClusterConfig",
    "build_cluster",
    "run_map_phase",
    "MapPhaseResult",
    "TerasortWorkload",
]
