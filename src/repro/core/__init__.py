"""ADAPT core: the paper's contribution.

* :mod:`repro.core.model` — the stochastic task-execution-time model of
  Section III.B (formulas 1-5).
* :mod:`repro.core.hashtable` — the weighted hash table of Algorithm 1
  (``buildHashTable`` / ``dataPlacement``).
* :mod:`repro.core.placement` — placement policies: stock HDFS random,
  the naive availability baseline, and ADAPT (with the Section IV.C
  threshold cap).
* :mod:`repro.core.predictor` — the NameNode-side Performance Predictor.
* :mod:`repro.core.rebalance` — planning for the ``adapt`` shell command.
"""

from repro.core.hashtable import WeightedHashTable
from repro.core.model import (
    expected_attempts,
    expected_downtime,
    expected_rework,
    expected_task_time,
)
from repro.core.placement import (
    AdaptPlacement,
    NaivePlacement,
    NodeView,
    PlacementPlan,
    PlacementPolicy,
    RandomPlacement,
    make_policy,
)
from repro.core.predictor import PerformancePredictor
from repro.core.rebalance import RebalanceMove, plan_rebalance

__all__ = [
    "expected_rework",
    "expected_downtime",
    "expected_attempts",
    "expected_task_time",
    "WeightedHashTable",
    "PlacementPolicy",
    "PlacementPlan",
    "NodeView",
    "RandomPlacement",
    "NaivePlacement",
    "AdaptPlacement",
    "make_policy",
    "PerformancePredictor",
    "RebalanceMove",
    "plan_rebalance",
]
