"""DataNode: one host's block storage.

Blocks live on persistent storage, so an interruption takes the host
offline but does *not* lose data — "data blocks are stored on persistent
storage and could be reused after the node is back" (Section II.B). A
DataNode is that disk and nothing more: whether its host is up is the
failure injector's to say
(:meth:`~repro.simulator.failures.FailureInjector.is_down`), and only a
permanent failure empties it (:meth:`DataNode.wipe`).
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.core.ids import NodeId
from repro.hdfs.blocks import Block


class DataNode:
    """The blocks one host stores.

    Passive: it schedules nothing and subscribes to nothing. Instances are
    slotted: at 226k nodes, per-instance ``__dict__`` s are pure build
    overhead.
    """

    __slots__ = ("_node_id", "_blocks")

    def __init__(self, node_id: NodeId) -> None:
        self._node_id = node_id
        self._blocks: Dict[str, Block] = {}

    @property
    def node_id(self) -> NodeId:
        return self._node_id

    @property
    def block_count(self) -> int:
        return len(self._blocks)

    def block_ids(self) -> Set[str]:
        """Ids of all stored blocks."""
        return set(self._blocks)

    def has_block(self, block_id: str) -> bool:
        return block_id in self._blocks

    def store(self, block: Block) -> None:
        """Store a replica; rejects duplicates."""
        if block.block_id in self._blocks:
            raise ValueError(f"{self._node_id} already stores {block.block_id}")
        self._blocks[block.block_id] = block

    def remove(self, block_id: str) -> Block:
        """Drop a replica; returns the removed block."""
        try:
            return self._blocks.pop(block_id)
        except KeyError:
            raise KeyError(f"{self._node_id} does not store {block_id}") from None

    def wipe(self) -> List[str]:
        """Destroy every stored replica (permanent failure: disk gone).

        Returns the ids of the destroyed replicas, in sorted order. Unlike
        an ordinary interruption — where "data blocks are stored on
        persistent storage and could be reused after the node is back" —
        a wiped node has nothing to offer even if it were to return.
        """
        destroyed = sorted(self._blocks)
        self._blocks.clear()
        return destroyed

    def __repr__(self) -> str:
        return f"DataNode({self._node_id!r}, blocks={len(self._blocks)})"
