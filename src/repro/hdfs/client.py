"""The HDFS client shell: ``copyFromLocal``, ``cp``, and ``adapt``.

Section IV.A defines three interfaces to ADAPT: ``copyFromLocal`` and
``cp`` gain an extra flag that enables availability-aware placement for the
written file, and a new ``adapt`` command redistributes an existing file's
blocks (analogous to the native rebalancer). :class:`DfsClient` exposes all
three against a :class:`~repro.hdfs.namenode.NameNode`; with ADAPT disabled
(``adapt_enabled=False``) the stock random placement runs, so the original
behaviour is fully preserved ("HDFS can be configured and used in its
original implementation, if ADAPT is disabled").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.ids import NodeId
from repro.core.placement import AdaptPlacement, PlacementPolicy, RandomPlacement
from repro.core.rebalance import RebalanceMove
from repro.hdfs.blocks import DfsFile
from repro.hdfs.namenode import NameNode
from repro.util.rng import RandomSource
from repro.util.validation import check_positive


@dataclass(frozen=True)
class AdaptReport:
    """Outcome of an ``adapt <file>`` invocation."""

    file_name: str
    moves: List[RebalanceMove]
    bytes_moved: int

    @property
    def move_count(self) -> int:
        return len(self.moves)


class DfsClient:
    """Client-side shell operations against one NameNode."""

    def __init__(
        self,
        namenode: NameNode,
        rng: RandomSource,
        default_block_size: int = 64 * 1024 * 1024,
        default_gamma: float = 12.0,
    ) -> None:
        self._namenode = namenode
        self._rng = rng
        self._block_size = int(check_positive("default_block_size", default_block_size))
        self._gamma = check_positive("default_gamma", default_gamma)

    @property
    def namenode(self) -> NameNode:
        return self._namenode

    def _policy(self, adapt_enabled: bool, policy: Optional[PlacementPolicy]) -> PlacementPolicy:
        if policy is not None:
            return policy
        return AdaptPlacement() if adapt_enabled else RandomPlacement()

    # -- shell commands -----------------------------------------------------------

    def copy_from_local(
        self,
        name: str,
        size_bytes: Optional[int] = None,
        num_blocks: Optional[int] = None,
        block_size: Optional[int] = None,
        replication: int = 1,
        adapt_enabled: bool = False,
        policy: Optional[PlacementPolicy] = None,
        gamma: Optional[float] = None,
    ) -> DfsFile:
        """``hdfs copyFromLocal [-adapt] <local> <name>``.

        Give either ``size_bytes`` (rounded up to whole blocks) or
        ``num_blocks``. The ``adapt_enabled`` flag is the paper's added
        shell argument; ``policy`` overrides it for experiments that need
        the naive baseline.
        """
        block = int(block_size) if block_size is not None else self._block_size
        if (size_bytes is None) == (num_blocks is None):
            raise ValueError("give exactly one of size_bytes or num_blocks")
        if num_blocks is None:
            assert size_bytes is not None
            check_positive("size_bytes", size_bytes)
            num_blocks = max(int(math.ceil(size_bytes / block)), 1)
        return self._namenode.create_file(
            name=name,
            num_blocks=num_blocks,
            block_size=block,
            replication=replication,
            policy=self._policy(adapt_enabled, policy),
            gamma=gamma if gamma is not None else self._gamma,
            rng=self._rng,
        )

    def cp(
        self,
        source: str,
        destination: str,
        adapt_enabled: bool = False,
        policy: Optional[PlacementPolicy] = None,
        gamma: Optional[float] = None,
    ) -> DfsFile:
        """``hdfs cp [-adapt] <src> <dst>``: copy with fresh placement."""
        src = self._namenode.file(source)
        return self._namenode.create_file(
            name=destination,
            num_blocks=src.num_blocks,
            block_size=src.block_size,
            replication=src.replication,
            policy=self._policy(adapt_enabled, policy),
            gamma=gamma if gamma is not None else self._gamma,
            rng=self._rng,
        )

    def adapt(
        self,
        name: str,
        policy: Optional[PlacementPolicy] = None,
        gamma: Optional[float] = None,
    ) -> AdaptReport:
        """``hdfs adapt <name>``: redistribute an existing file in place.

        Plans the availability-aware move set and applies it at the
        metadata level; the returned report carries the moves and total
        bytes relocated (the migration the command would generate).
        """
        chosen = policy if policy is not None else AdaptPlacement()
        moves = self._namenode.plan_adapt(
            name,
            policy=chosen,
            gamma=gamma if gamma is not None else self._gamma,
            rng=self._rng,
        )
        moved = 0
        for move in moves:
            self._namenode.apply_move(move)
            moved += self._namenode.block(move.block_id).size_bytes
        return AdaptReport(file_name=name, moves=moves, bytes_moved=moved)

    # -- inspection ------------------------------------------------------------------

    def block_distribution(self, name: str) -> Dict[NodeId, int]:
        """Replica count per node for a file."""
        return self._namenode.block_distribution(name)

    def storage_skew(self, name: str) -> float:
        """Max/mean replica count over nodes — the storage-fidelity metric
        the Section IV.C threshold is designed to bound."""
        counts = list(self._namenode.block_distribution(name).values())
        mean = sum(counts) / len(counts)
        if mean == 0:
            raise ValueError(f"file {name!r} has no replicas")
        return max(counts) / mean
