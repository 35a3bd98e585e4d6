"""HDFS data model: blocks and files.

Files in HDFS are organised in equal-sized blocks (Section II.B); each
block is the unit of placement, replication, and map-task input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.util.validation import check_positive


@dataclass(frozen=True, slots=True)
class Block:
    """One immutable data block of a file.

    Slotted: a file holds one per map task, so a ``__dict__`` per block
    would be paid ``tasks_per_node`` times per host (DESIGN.md §10).
    """

    block_id: str
    file_name: str
    index: int
    size_bytes: int

    def __post_init__(self) -> None:
        check_positive("size_bytes", self.size_bytes)
        if self.index < 0:
            raise ValueError(f"block index must be non-negative, got {self.index}")


@dataclass(frozen=True)
class DfsFile:
    """A file: an ordered list of blocks plus its replication degree."""

    name: str
    block_size: int
    replication: int
    blocks: List[Block]

    def __post_init__(self) -> None:
        check_positive("block_size", self.block_size)
        if self.replication < 1:
            raise ValueError(f"replication must be >= 1, got {self.replication}")
        if not self.blocks:
            raise ValueError("a file needs at least one block")

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @property
    def size_bytes(self) -> int:
        return sum(block.size_bytes for block in self.blocks)

    @staticmethod
    def build(name: str, num_blocks: int, block_size: int, replication: int) -> "DfsFile":
        """Construct a file of ``num_blocks`` equal blocks."""
        if num_blocks <= 0:
            raise ValueError(f"num_blocks must be positive, got {num_blocks}")
        blocks = [
            Block(
                block_id=f"{name}#blk{i:06d}",
                file_name=name,
                index=i,
                size_bytes=block_size,
            )
            for i in range(num_blocks)
        ]
        return DfsFile(name=name, block_size=block_size, replication=replication, blocks=blocks)
