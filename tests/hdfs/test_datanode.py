"""Tests for the DataNode storage model."""

import pytest

from repro.hdfs.blocks import Block
from repro.hdfs.datanode import DataNode
from repro.simulator.events import NodeDown, NodeUp


def block(i, size=100):
    return Block(block_id=f"b{i}", file_name="f", index=i, size_bytes=size)


class TestStorage:
    def test_store_and_query(self):
        dn = DataNode("n0")
        dn.store(block(0))
        assert dn.has_block("b0")
        assert dn.block_count == 1
        assert dn.used_bytes == 100

    def test_duplicate_rejected(self):
        dn = DataNode("n0")
        dn.store(block(0))
        with pytest.raises(ValueError, match="already stores"):
            dn.store(block(0))

    def test_remove(self):
        dn = DataNode("n0")
        dn.store(block(0))
        removed = dn.remove("b0")
        assert removed.block_id == "b0"
        assert not dn.has_block("b0")

    def test_remove_missing(self):
        dn = DataNode("n0")
        with pytest.raises(KeyError):
            dn.remove("ghost")

    def test_capacity_enforced(self):
        dn = DataNode("n0", capacity_bytes=250)
        dn.store(block(0))
        dn.store(block(1))
        with pytest.raises(ValueError, match="full"):
            dn.store(block(2))

    def test_blocks_persist_across_downtime(self):
        # "Data blocks are stored on persistent storage and could be reused
        # after the node is back" (Section II.B).
        dn = DataNode("n0")
        dn.store(block(0))
        dn.handle_node_down(NodeDown(time=0.0, node_id="n0"))
        assert dn.has_block("b0")
        dn.handle_node_up(NodeUp(time=1.0, node_id="n0"))
        assert dn.has_block("b0")

    def test_up_state(self):
        dn = DataNode("n0")
        assert dn.is_up
        dn.handle_node_down(NodeDown(time=0.0, node_id="n0"))
        assert not dn.is_up
