"""DataNode: per-host block storage with up/down state.

Blocks live on persistent storage, so an interruption takes the DataNode
offline but does *not* lose data — "data blocks are stored on persistent
storage and could be reused after the node is back" (Section II.B). The
failure injector toggles ``is_up``; stored blocks survive the transition.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Set

from repro.core.ids import NodeId
from repro.hdfs.blocks import Block

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulator.events import NodeDown, NodeUp


class DataNode:
    """Storage state of one host.

    Satisfies the :class:`~repro.runtime.services.Service` protocol so the
    cluster's registry owns its lifecycle alongside the other per-node
    agents (simlint C002: every bus subscriber is a registered service).
    Storage is passive — it schedules nothing — so start/stop are no-ops.
    Instances are slotted: at 226k nodes, per-instance ``__dict__`` s are
    pure build overhead.
    """

    __slots__ = ("_node_id", "_capacity", "_blocks", "_used", "_is_up")

    def __init__(self, node_id: NodeId, capacity_bytes: Optional[int] = None) -> None:
        self._node_id = node_id
        self._capacity = capacity_bytes
        self._blocks: Dict[str, Block] = {}
        self._used = 0
        self._is_up = True

    def start(self) -> None:
        """Service lifecycle: nothing to arm (storage is event-driven)."""

    def stop(self) -> None:
        """Service lifecycle: nothing to disarm."""

    @property
    def node_id(self) -> NodeId:
        return self._node_id

    @property
    def is_up(self) -> bool:
        """Physical state (the NameNode's *belief* may lag; see NameNode)."""
        return self._is_up

    def handle_node_down(self, event: "NodeDown") -> None:
        """Bus handler (STORAGE phase, keyed by this node's id): the node
        is physically down."""
        self._is_up = False

    def handle_node_up(self, event: "NodeUp") -> None:
        """Bus handler (STORAGE phase, keyed by this node's id): the node
        is physically up again."""
        self._is_up = True

    @property
    def capacity_bytes(self) -> Optional[int]:
        return self._capacity

    @property
    def used_bytes(self) -> int:
        """Bytes stored, maintained incrementally (ingest used to pay a
        full sum over stored blocks per store — quadratic in blocks)."""
        return self._used

    @property
    def block_count(self) -> int:
        return len(self._blocks)

    def block_ids(self) -> Set[str]:
        """Ids of all stored blocks."""
        return set(self._blocks)

    def blocks(self) -> List[Block]:
        return list(self._blocks.values())

    def has_block(self, block_id: str) -> bool:
        return block_id in self._blocks

    def store(self, block: Block) -> None:
        """Store a replica; rejects duplicates and capacity overflows."""
        if block.block_id in self._blocks:
            raise ValueError(f"{self._node_id} already stores {block.block_id}")
        if self._capacity is not None and self._used + block.size_bytes > self._capacity:
            raise ValueError(
                f"{self._node_id} is full: {self._used}+{block.size_bytes} "
                f"> {self._capacity} bytes"
            )
        self._blocks[block.block_id] = block
        self._used += block.size_bytes

    def remove(self, block_id: str) -> Block:
        """Drop a replica; returns the removed block."""
        try:
            block = self._blocks.pop(block_id)
        except KeyError:
            raise KeyError(f"{self._node_id} does not store {block_id}") from None
        self._used -= block.size_bytes
        return block

    def wipe(self) -> List[str]:
        """Destroy every stored replica (permanent failure: disk gone).

        Returns the ids of the destroyed replicas, in sorted order. Unlike
        an ordinary interruption — where "data blocks are stored on
        persistent storage and could be reused after the node is back" —
        a wiped node has nothing to offer even if it were to return.
        """
        destroyed = sorted(self._blocks)
        self._blocks.clear()
        self._used = 0
        return destroyed

    def __repr__(self) -> str:
        state = "up" if self._is_up else "down"
        return f"DataNode({self._node_id!r}, blocks={len(self._blocks)}, {state})"
