"""The NameNode-side Performance Predictor (paper Section IV, Figure 2).

The predictor keeps one :class:`InterruptionStatsEstimator` per registered
node — "a data structure with two double data types ... updated whenever
the heart beat arrivals/misses are sufficient to change its values" — and
the failure-free map-task length gamma obtained "from the logging services
of Hadoop". It serves the per-node (lambda, mu) estimates from which
Algorithm 1's expected task times are computed (``NameNode.node_views``
builds the placement views from them).

Two operating modes:

* **estimated** (default): estimates come from heartbeat observations fed
  in by the heartbeat collector;
* **oracle**: true (lambda, mu) are pinned per node, for the ablation that
  separates algorithm quality from estimation error.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.ids import NodeId
from repro.availability.estimators import (
    AvailabilityEstimate,
    InterruptionStatsEstimator,
)


class PerformancePredictor:
    """Tracks per-node interruption statistics and serves their estimates."""

    def __init__(
        self,
        prior_mtbi: float = 1e6,
        prior_recovery: float = 0.0,
        prior_weight: float = 1e-4,
    ) -> None:
        """The default prior is deliberately weak (1e-4 pseudo-episodes):
        an untouched node looks dedicated (MTBI ~ 1e6 s), but a handful of
        observed episodes immediately dominate the estimate."""
        self._prior_mtbi = prior_mtbi
        self._prior_recovery = prior_recovery
        self._prior_weight = prior_weight
        self._estimators: Dict[NodeId, InterruptionStatsEstimator] = {}
        self._oracle: Dict[NodeId, AvailabilityEstimate] = {}

    # -- registration ---------------------------------------------------------

    def register_node(self, node_id: NodeId) -> None:
        """Start tracking a node (idempotent)."""
        if node_id not in self._estimators:
            self._estimators[node_id] = InterruptionStatsEstimator(
                prior_mtbi=self._prior_mtbi,
                prior_recovery=self._prior_recovery,
                prior_weight=self._prior_weight,
            )

    def pin_oracle(self, node_id: NodeId, estimate: AvailabilityEstimate) -> None:
        """Pin the true parameters for a node (oracle mode for that node)."""
        self.register_node(node_id)
        self._oracle[node_id] = estimate

    @property
    def node_ids(self) -> List[NodeId]:
        return sorted(self._estimators)

    # -- observation feed (called by the heartbeat collector) ------------------

    def observe_uptime(self, node_id: NodeId, seconds: float) -> None:
        """Fold in observed uptime for a node.

        Auto-registers unknown nodes: the heartbeat collector may report a
        host that joined mid-run before anything else introduced it, and
        the observation feed must never crash the heartbeat service.
        """
        estimator = self._estimators.get(node_id)
        if estimator is None:
            self.register_node(node_id)
            estimator = self._estimators[node_id]
        estimator.record_uptime(seconds)

    def observe_downtime(self, node_id: NodeId, seconds: float) -> None:
        """Fold in one completed downtime episode for a node.

        Auto-registers unknown nodes, like :meth:`observe_uptime`.
        """
        self.register_node(node_id)
        self._estimators[node_id].record_downtime(seconds)

    def _require(self, node_id: NodeId) -> None:
        if node_id not in self._estimators:
            raise KeyError(f"node {node_id!r} is not registered with the predictor")

    # -- predictions ------------------------------------------------------------

    def estimate(self, node_id: NodeId) -> AvailabilityEstimate:
        """Current availability estimate for a node (oracle wins if pinned)."""
        self._require(node_id)
        if node_id in self._oracle:
            return self._oracle[node_id]
        return self._estimators[node_id].estimate()
