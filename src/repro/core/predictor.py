"""The NameNode-side Performance Predictor (paper Section IV, Figure 2).

The predictor keeps one :class:`InterruptionStatsEstimator` per registered
node — "a data structure with two double data types ... updated whenever
the heart beat arrivals/misses are sufficient to change its values" — and
the failure-free map-task length gamma obtained "from the logging services
of Hadoop". From these it produces the per-node expected task times that
Algorithm 1 consumes.

Two operating modes:

* **estimated** (default): estimates come from heartbeat observations fed
  in by the heartbeat collector;
* **oracle**: true (lambda, mu) are pinned per node, for the ablation that
  separates algorithm quality from estimation error.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.core.ids import NodeId
from repro.availability.estimators import (
    AvailabilityEstimate,
    InterruptionStatsEstimator,
)
from repro.core.model import UnstableHostError, expected_task_time
from repro.core.placement import NodeView
from repro.util.validation import check_positive


class PerformancePredictor:
    """Tracks per-node interruption statistics and predicts task times."""

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

    def unpin_oracle(self, node_id: NodeId) -> None:
        """Return a node to estimated mode."""
        self._oracle.pop(node_id, None)

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

    def expected_task_time(self, node_id: NodeId, gamma: float) -> float:
        """E[T] on the node for a task of failure-free length gamma.

        Unstable nodes (lambda*mu >= 1) have no finite E[T]; infinity is
        returned so callers can rank them last without special-casing.
        """
        check_positive("gamma", gamma)
        est = self.estimate(node_id)
        try:
            return expected_task_time(gamma, est.arrival_rate, est.recovery_mean)
        except UnstableHostError:
            return float("inf")

    def node_views(
        self,
        up_nodes: Optional[Iterable[NodeId]] = None,
    ) -> List[NodeView]:
        """Placement-ready views of every registered node.

        ``up_nodes``, when given, marks exactly those nodes as up; by
        default all registered nodes are considered up.
        """
        up = set(up_nodes) if up_nodes is not None else None
        views = []
        for node_id in self.node_ids:
            views.append(
                NodeView(
                    node_id=node_id,
                    estimate=self.estimate(node_id),
                    is_up=(up is None or node_id in up),
                )
            )
        return views

    def snapshot(self) -> Dict[NodeId, AvailabilityEstimate]:
        """All current estimates keyed by node id."""
        return {node_id: self.estimate(node_id) for node_id in self.node_ids}
