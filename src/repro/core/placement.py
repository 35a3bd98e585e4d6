"""Data placement policies: stock random, naive availability, and ADAPT.

A policy turns a snapshot of the cluster (per-node availability estimates)
plus the ingest parameters (number of blocks ``m``, replication ``k``,
failure-free task length ``gamma``) into a :class:`PlacementPlan`. The
NameNode then asks the plan for ``k`` distinct replica holders per block.

* :class:`RandomPlacement` — the existing HDFS strategy: every block picks
  uniformly random nodes (Section III.C: "the NameNode generates a random
  integer r and selects the corresponding data node").
* :class:`NaivePlacement` — the strawman of Section V.C: weights
  proportional to the node availability ``(MTBI - mu) / MTBI``.
* :class:`AdaptPlacement` — Algorithm 1: weights proportional to
  ``1/E[T_i]`` from the stochastic model, realised through the weighted
  hash table, with the Section IV.C threshold cap ``m(k+1)/n``.

All plans consume a dedicated :class:`~repro.util.rng.RandomSource`, so a
placement decision stream is reproducible and independent of everything
else in a simulation.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set

from repro.core.ids import NodeId
from repro.availability.estimators import AvailabilityEstimate
from repro.core.hashtable import WeightedHashTable
from repro.core.model import UnstableHostError, expected_task_time
from repro.util.rng import RandomSource
from repro.util.validation import check_positive

#: Retry budget for rejection sampling before falling back deterministically.
_MAX_DRAWS = 64


@dataclass(frozen=True)
class NodeView:
    """The placement-relevant snapshot of one node.

    ``estimate`` carries the (lambda, mu) the Performance Predictor
    currently believes; ``is_up`` excludes currently-down nodes from
    receiving new blocks (they cannot accept a transfer).
    """

    node_id: NodeId
    estimate: AvailabilityEstimate
    is_up: bool = True


class PlacementPlan(ABC):
    """A per-ingest placement decision maker.

    The plan owns the hash table (ADAPT builds it "every time when the
    MapReduce application initializes its input", Section III.C) and the
    per-node allocation counters used by the threshold cap.
    """

    def __init__(self, nodes: Sequence[NodeView], num_blocks: int, replication: int) -> None:
        if replication < 1:
            raise ValueError(f"replication must be >= 1, got {replication}")
        check_positive("num_blocks", num_blocks)
        self._nodes = [n for n in nodes if n.is_up]
        if len(self._nodes) < replication:
            raise ValueError(
                f"need at least {replication} up nodes for replication, "
                f"got {len(self._nodes)}"
            )
        self._num_blocks = int(num_blocks)
        self._replication = replication
        self._allocated: Dict[NodeId, int] = {n.node_id: 0 for n in self._nodes}
        #: Optional rack-locality constraint (HDFS's off-rack rule); see
        #: :meth:`set_rack_constraint`.
        self._rack_of: Optional[Callable[[NodeId], int]] = None

    @property
    def num_blocks(self) -> int:
        return self._num_blocks

    @property
    def replication(self) -> int:
        return self._replication

    @property
    def eligible_nodes(self) -> List[NodeId]:
        """Nodes the plan may still place blocks on."""
        return [n.node_id for n in self._nodes if not self._at_capacity(n.node_id)]

    def allocations(self) -> Dict[NodeId, int]:
        """Copy of all allocation counters."""
        return dict(self._allocated)

    def _at_capacity(self, node_id: NodeId) -> bool:
        cap = self._capacity(node_id)
        return cap is not None and self._allocated[node_id] >= cap

    def _capacity(self, node_id: NodeId) -> Optional[int]:
        """Per-node block cap, or None for uncapped plans."""
        return None

    def set_rack_constraint(self, rack_of: Callable[[NodeId], int]) -> None:
        """Require every block's replica set to span at least two racks.

        This is HDFS's off-rack rule reduced to its durability essence —
        one rack-level failure never takes out every replica — composed
        *on top of* the policy's availability weighting: the policy's
        sampled choices stand, and only when a block's whole replica set
        lands in one rack is the last pick substituted with the
        least-allocated eligible node from another rack. The substitution
        consumes no randomness, so enabling the constraint never shifts
        the placement RNG stream — ADAPT's availability grouping and the
        rack rule compose without re-seeding each other. A cluster whose
        eligible nodes all share one rack leaves placements unchanged
        (the constraint is unsatisfiable, not an error).
        """
        self._rack_of = rack_of

    def _fix_rack_spread(self, chosen: List[NodeId], k: int) -> List[NodeId]:  # simlint: draws=0
        """Substitute the last pick when a replica set is single-rack."""
        rack_of = self._rack_of
        if rack_of is None or k < 2 or len(chosen) < k:
            return chosen
        home = rack_of(chosen[0])
        if any(rack_of(node_id) != home for node_id in chosen[1:]):
            return chosen
        off_rack = sorted(
            (
                n
                for n in self.eligible_nodes
                if n not in chosen and rack_of(n) != home
            ),
            key=lambda node_id: (self._allocated[node_id], node_id),
        )
        if off_rack:
            chosen[-1] = off_rack[0]
        return chosen

    @abstractmethod
    def _draw(self, rng: RandomSource) -> NodeId:
        """Draw one candidate node (may be repeated/capped; caller filters)."""

    def choose_replicas(self, rng: RandomSource, count: Optional[int] = None) -> List[NodeId]:
        """Choose ``count`` distinct nodes for one block and record them.

        Rejection-samples the policy's distribution, skipping duplicates
        and capped nodes; if the retry budget runs out (e.g. nearly every
        node is capped) it falls back to the least-allocated eligible
        nodes, so ingest always completes.
        """
        k = self._replication if count is None else count
        chosen: List[NodeId] = []
        draws = 0
        while len(chosen) < k and draws < _MAX_DRAWS:
            draws += 1
            candidate = self._draw(rng)
            if candidate in chosen or self._at_capacity(candidate):
                continue
            chosen.append(candidate)
        if len(chosen) < k:
            fallback = sorted(
                (n for n in self.eligible_nodes if n not in chosen),
                key=lambda node_id: (self._allocated[node_id], node_id),
            )
            needed = k - len(chosen)
            if len(fallback) < needed:
                # Every node is capped: ignore caps rather than fail ingest.
                fallback = sorted(
                    (n.node_id for n in self._nodes if n.node_id not in chosen),
                    key=lambda node_id: (self._allocated[node_id], node_id),
                )
            chosen.extend(fallback[:needed])
        if len(chosen) < k:
            raise RuntimeError(f"could not find {k} distinct nodes")
        chosen = self._fix_rack_spread(chosen, k)
        for node_id in chosen:
            self._allocated[node_id] += 1
        return chosen

    def choose_replicas_many(
        self, rng: RandomSource, num_blocks: int, count: Optional[int] = None
    ) -> List[List[NodeId]]:
        """Choose replica holders for ``num_blocks`` consecutive blocks.

        Byte-identical to calling :meth:`choose_replicas` once per block —
        the per-block RNG draw order is part of the golden contract — but
        gives plans a single entry point for batched ingest, where
        subclasses amortise their per-block bookkeeping.
        """
        return [self.choose_replicas(rng, count) for _ in range(num_blocks)]


class _UniformPlan(PlacementPlan):
    """Uniform random placement over up nodes (stock HDFS)."""

    def _draw(self, rng: RandomSource) -> NodeId:
        return self._nodes[rng.randrange(len(self._nodes))].node_id


class _WeightedPlan(PlacementPlan):
    """Weighted placement through Algorithm 1's hash table.

    Used by both ADAPT (rates = 1/E[T]) and the naive baseline (rates =
    availability); the rate function is injected. When the threshold cap
    removes a node, the table is rebuilt over the remaining nodes — "the
    node that reaches the threshold will not be considered for future data
    block placement" (Section IV.C).
    """

    def __init__(
        self,
        nodes: Sequence[NodeView],
        num_blocks: int,
        replication: int,
        rate_of: Callable[[NodeView], float],
        capped: bool,
    ) -> None:
        super().__init__(nodes, num_blocks, replication)
        # The cap and the rates depend only on the plan's inputs, so they
        # are computed once here instead of on every cap check and rebuild.
        # Threshold m(k+1)/n over the *original* population size n.
        self._cap: Optional[int] = None
        if capped:
            cap = self._num_blocks * (self._replication + 1) / len(self._allocated)
            self._cap = max(int(math.ceil(cap)), 1)
        self._rates = [max(rate_of(n), 0.0) for n in self._nodes]
        self._table: Optional[WeightedHashTable] = None
        self._table_ids: Set[NodeId] = set()
        self._rebuild_table()

    def _capacity(self, node_id: NodeId) -> Optional[int]:
        return self._cap

    def _rebuild_table(self) -> None:
        members = [
            (n.node_id, rate)
            for n, rate in zip(self._nodes, self._rates, strict=True)
            if not self._at_capacity(n.node_id)
        ]
        if not members:
            self._table = None
            self._table_ids = set()
            return
        ids = [node_id for node_id, _rate in members]
        rates = [rate for _node_id, rate in members]
        if sum(rates) <= 0.0:
            # Degenerate estimates (all nodes unusable): fall back to uniform.
            rates = [1.0] * len(members)
        self._table = WeightedHashTable(
            ids,
            rates,
            num_slots=max(self._num_blocks, len(members)),
        )
        self._table_ids = set(ids)

    def expected_share(self, node_id: NodeId) -> float:
        """Current expected fraction of placements going to ``node_id``."""
        if self._table is None or node_id not in self._table_ids:
            return 0.0
        return self._table.rate(node_id)

    def _draw(self, rng: RandomSource) -> NodeId:
        if self._table is None:
            # All nodes capped; base-class fallback will resolve.
            return self._nodes[rng.randrange(len(self._nodes))].node_id
        return self._table.place(rng)

    def choose_replicas(self, rng: RandomSource, count: Optional[int] = None) -> List[NodeId]:
        chosen = super().choose_replicas(rng, count)
        # Only the chosen nodes' allocations moved, and a rebuild evicts
        # every at-capacity member — so scanning ``chosen`` against the
        # table (instead of the whole table, O(n) per block) triggers
        # rebuilds at exactly the same instants.
        if self._cap is not None and any(
            node_id in self._table_ids and self._at_capacity(node_id)
            for node_id in chosen
        ):
            self._rebuild_table()
        return chosen


class PlacementPolicy(ABC):
    """Factory for per-ingest placement plans."""

    #: Short machine-readable policy name (used in reports and configs).
    name: str = "abstract"

    @abstractmethod
    def build_plan(
        self,
        nodes: Sequence[NodeView],
        num_blocks: int,
        replication: int,
        gamma: float,
    ) -> PlacementPlan:
        """Build the plan for ingesting ``num_blocks`` blocks."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class RandomPlacement(PlacementPolicy):
    """The existing HDFS strategy: uniform random nodes per block."""

    name = "existing"

    def build_plan(
        self,
        nodes: Sequence[NodeView],
        num_blocks: int,
        replication: int,
        gamma: float,
    ) -> PlacementPlan:
        return _UniformPlan(nodes, num_blocks, replication)


class NaivePlacement(PlacementPolicy):
    """Naive availability-proportional placement (Section V.C strawman).

    Weight of node i = (MTBI_i - mu_i) / MTBI_i, i.e. the fraction of time
    the node is expected to be usable, ignoring how interruptions interact
    with task length. Dedicated nodes get weight 1.
    """

    name = "naive"

    def __init__(self, capped: bool = False) -> None:
        self._capped = capped

    def build_plan(
        self,
        nodes: Sequence[NodeView],
        num_blocks: int,
        replication: int,
        gamma: float,
    ) -> PlacementPlan:
        return _WeightedPlan(
            nodes,
            num_blocks,
            replication,
            rate_of=lambda n: n.estimate.naive_availability,
            capped=self._capped,
        )


class AdaptPlacement(PlacementPolicy):
    """ADAPT: availability-aware placement via the stochastic model.

    Rates are ``1/E[T_i]`` with E[T] from formula (5) evaluated at the
    ingest's failure-free task length gamma. ``capped=True`` (default)
    applies the Section IV.C threshold ``m(k+1)/n``.
    """

    name = "adapt"

    def __init__(self, capped: bool = True) -> None:
        self._capped = capped

    def build_plan(
        self,
        nodes: Sequence[NodeView],
        num_blocks: int,
        replication: int,
        gamma: float,
    ) -> PlacementPlan:
        check_positive("gamma", gamma)

        def rate(view: NodeView) -> float:
            est = view.estimate
            try:
                t = expected_task_time(gamma, est.arrival_rate, est.recovery_mean)
            except UnstableHostError:
                # lambda*mu >= 1: the node is down in the long run; give it
                # no placement mass rather than crash the ingest.
                return 0.0
            return 1.0 / t

        return _WeightedPlan(
            nodes,
            num_blocks,
            replication,
            rate_of=rate,
            capped=self._capped,
        )


_POLICIES: Dict[str, Callable[[], PlacementPolicy]] = {
    "existing": RandomPlacement,
    "random": RandomPlacement,
    "naive": NaivePlacement,
    "adapt": AdaptPlacement,
}


def make_policy(name: str, **kwargs: object) -> PlacementPolicy:
    """Build a policy by name: ``existing``/``random``, ``naive``, ``adapt``."""
    try:
        factory = _POLICIES[name.lower()]
    except KeyError:
        known = ", ".join(sorted(_POLICIES))
        raise ValueError(f"unknown placement policy {name!r}; known: {known}") from None
    return factory(**kwargs)  # type: ignore[call-arg]
