"""The weighted hash table of Algorithm 1.

``buildHashTable`` lays the nodes out over ``m`` hash-table slots (one per
data block): node *i* receives ``w_i = m * rate_i`` consecutive slots, where
``rate_i = (1/E[T_i]) / sum_j (1/E[T_j])``. Because the ``w_i`` are real
numbers, a slot on a boundary is shared by the adjacent nodes — the paper's
"collision chain". ``dataPlacement`` draws a uniform slot; a single-owner
slot returns its owner directly, while a collision chain is resolved by a
second uniform draw weighted by the chain members' rates.

The table stores the node intervals ``[a_i, b_i)`` rather than one chain
per slot. Node *i* covers slots ``floor(a_i)`` to ``min(ceil(b_i), m) - 1``;
both bounds are non-decreasing in *i*, so slot ``r``'s candidates are the
contiguous index range ``[bisect_right(lasts, r), bisect_right(firsts, r))``,
and its chain is the candidates whose overlap with ``[r, r+1)`` exceeds
``1e-12``, in node order. That is exactly the chain a per-slot layout would
hold, but a (re)build costs O(n log n) instead of O(m), and a draw costs
O(log n + chain). The difference matters because ADAPT's plan rebuilds the
table every time its threshold cap removes a node.

This module implements both the paper-faithful chain resolution (weights =
global rates, as the pseudo-code literally states) and an exact variant
(weights = each node's slot-interval overlap) selectable with
``chain_weighting="overlap"``. For realistic configurations (many blocks
per node) the two are nearly indistinguishable; the exact variant makes the
per-node selection probability exactly proportional to ``rate_i``, which the
property tests exploit.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Dict, List, Sequence, Tuple

from repro.core.ids import NodeId
from repro.util.rng import RandomSource

_CHAIN_WEIGHTINGS = ("rate", "overlap")


class WeightedHashTable:
    """Block-to-node mapping table (Algorithm 1).

    Parameters
    ----------
    node_ids:
        The candidate nodes, in a stable order.
    rates:
        Per-node placement rates; normalised internally so only ratios
        matter. Must be non-negative with at least one positive entry.
    num_slots:
        ``m``, the number of data blocks; the table has one key per block
        ("the size of the hash table is equivalent to the number of
        blocks", Section IV.B.1).
    chain_weighting:
        ``"rate"`` for the paper-literal collision resolution, ``"overlap"``
        for exact interval-proportional resolution.
    """

    def __init__(
        self,
        node_ids: Sequence[NodeId],
        rates: Sequence[float],
        num_slots: int,
        chain_weighting: str = "rate",
    ) -> None:
        if len(node_ids) != len(rates):
            raise ValueError("node_ids and rates must have the same length")
        if not node_ids:
            raise ValueError("at least one node is required")
        if num_slots <= 0:
            raise ValueError(f"num_slots must be positive, got {num_slots}")
        if chain_weighting not in _CHAIN_WEIGHTINGS:
            raise ValueError(
                f"chain_weighting must be one of {_CHAIN_WEIGHTINGS}, got {chain_weighting!r}"
            )
        if any(r < 0 for r in rates):
            raise ValueError("rates must be non-negative")
        total = float(sum(rates))
        if total <= 0.0 or not math.isfinite(total):
            raise ValueError(f"rates must sum to a positive finite value, got {total}")

        self._node_ids = list(node_ids)
        self._rates = [float(r) / total for r in rates]
        self._num_slots = int(num_slots)
        self._chain_weighting = chain_weighting
        self._build_intervals()

    def _build_intervals(self) -> None:
        """Lay node intervals over the slots and check every chain.

        Keeps, per positive-rate node, ``(node index, a_i, b_i)`` plus the
        first and one-past-last slot it covers, from the cumulative
        recurrence ``b_i = a_i + m * rate_i``.
        """
        m = self._num_slots
        intervals: List[Tuple[int, float, float]] = []
        firsts: List[int] = []
        lasts: List[int] = []
        a = 0.0
        for index, rate in enumerate(self._rates):
            if rate == 0.0:
                continue
            b = a + rate * m
            intervals.append((index, a, b))
            firsts.append(int(math.floor(a)))
            # Guard the final interval against float drift past the table end.
            lasts.append(min(int(math.ceil(b)), m))
            a = b
        self._intervals = intervals
        self._firsts = firsts
        self._lasts = lasts
        # A slot strictly inside an interval overlaps it by exactly 1.0 and
        # no other interval reaches it, so a chain can only be empty — or
        # longer than one — at an interval's first or last slot, or past the
        # last interval's end. Checking those slots in order finds the
        # first empty slot, and the longest chain.
        edges = {first for first in firsts if first < m}
        edges.update(last - 1 for last in lasts)
        if lasts[-1] < m:
            edges.add(lasts[-1])
        longest = 0
        for slot in sorted(edges):
            chain = self._chain_at(slot)
            if not chain:
                raise AssertionError(f"hash table slot {slot} has an empty chain")
            longest = max(longest, len(chain))
        self._max_chain_length = longest

    def _chain_at(self, slot: int) -> List[Tuple[int, float]]:
        """The chain of (node index, overlap length) pairs at ``slot``."""
        low, high = float(slot), slot + 1.0
        return [
            (index, overlap)
            for index, a, b in self._intervals[
                bisect_right(self._lasts, slot) : bisect_right(self._firsts, slot)
            ]
            if (overlap := min(b, high) - max(a, low)) > 1e-12
        ]

    def _chain_weights(self, chain: List[Tuple[int, float]]) -> List[float]:
        if self._chain_weighting == "overlap":
            return [overlap for _i, overlap in chain]
        return [self._rates[i] for i, _overlap in chain]

    # -- queries ---------------------------------------------------------------

    @property
    def num_slots(self) -> int:
        """``m``: one key per data block."""
        return self._num_slots

    @property
    def node_ids(self) -> List[NodeId]:
        return list(self._node_ids)

    def rate(self, node_id: NodeId) -> float:
        """The normalised placement rate of a node."""
        return self._rates[self._node_ids.index(node_id)]

    def chain(self, slot: int) -> List[NodeId]:
        """The node chain stored at a hash-table key (collision list)."""
        # Indexing a range keeps list semantics: negative keys count from
        # the end and out-of-range keys raise IndexError.
        slot = range(self._num_slots)[slot]
        return [self._node_ids[i] for i, _overlap in self._chain_at(slot)]

    def max_chain_length(self) -> int:
        """Longest collision chain; bounded by n in degenerate tables."""
        return self._max_chain_length

    # -- dataPlacement ----------------------------------------------------------

    def place(self, rng: RandomSource) -> NodeId:
        """One ``dataPlacement`` draw: returns the selected node id."""
        chain = self._chain_at(rng.randrange(self._num_slots))
        if len(chain) == 1:
            return self._node_ids[chain[0][0]]
        weights = self._chain_weights(chain)
        omega = sum(weights)
        r1 = rng.random()
        low = 0.0
        for (index, _overlap), weight in zip(chain, weights, strict=True):
            high = low + weight / omega
            if low <= r1 < high:
                return self._node_ids[index]
            low = high
        # r1 landed on the floating-point residue past the last boundary.
        return self._node_ids[chain[-1][0]]

    def place_many(self, rng: RandomSource, count: int) -> List[NodeId]:
        """Draw ``count`` placements."""
        return [self.place(rng) for _ in range(count)]

    def selection_probabilities(self) -> Dict[NodeId, float]:
        """Exact per-node selection probability of :meth:`place`.

        Computed by summing, over slots, P(slot) * P(node | chain). With
        ``chain_weighting="overlap"`` this equals ``rate_i`` exactly (up to
        float error); with the paper's ``"rate"`` weighting it is close but
        not identical when chains mix very unequal rates.
        """
        probs = {node_id: 0.0 for node_id in self._node_ids}
        slot_p = 1.0 / self._num_slots
        for slot in range(self._num_slots):
            chain = self._chain_at(slot)
            if len(chain) == 1:
                probs[self._node_ids[chain[0][0]]] += slot_p
                continue
            weights = self._chain_weights(chain)
            omega = sum(weights)
            for (index, _overlap), weight in zip(chain, weights, strict=True):
                probs[self._node_ids[index]] += slot_p * weight / omega
        return probs

    def __repr__(self) -> str:
        return (
            f"WeightedHashTable(nodes={len(self._node_ids)}, slots={self._num_slots}, "
            f"weighting={self._chain_weighting!r})"
        )
