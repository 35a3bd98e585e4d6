"""Tests for the DataNode storage model."""

import pytest

from repro.availability.generator import HostAvailability
from repro.availability.traces import AvailabilityTrace
from repro.hdfs.blocks import Block
from repro.hdfs.datanode import DataNode
from repro.runtime.cluster import ClusterConfig, build_cluster


def block(i, size=100):
    return Block(block_id=f"b{i}", file_name="f", index=i, size_bytes=size)


class TestStorage:
    def test_store_and_query(self):
        dn = DataNode("n0")
        dn.store(block(0))
        assert dn.has_block("b0")
        assert dn.block_count == 1
        assert dn.block_ids() == {"b0"}

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

    def test_blocks_persist_across_downtime(self):
        # "Data blocks are stored on persistent storage and could be reused
        # after the node is back" (Section II.B): an interruption of the
        # host leaves its disk as it was.
        hosts = [HostAvailability(host_id="n0"), HostAvailability(host_id="n1")]
        traces = [AvailabilityTrace("n0", 100.0, [(10.0, 20.0)]), AvailabilityTrace("n1", 100.0)]
        cluster = build_cluster(hosts, ClusterConfig(detection="oracle"), traces=traces)
        cluster.client.copy_from_local("f", num_blocks=4, block_size=100, replication=2)
        disk = cluster.datanodes[cluster.ids.id_of("n0")]
        stored = disk.block_ids()
        assert len(stored) == 4
        cluster.sim.run(until=15.0)
        assert cluster.injector.is_down(disk.node_id)
        assert disk.block_ids() == stored
        cluster.sim.run(until=25.0)
        assert not cluster.injector.is_down(disk.node_id)
        assert disk.block_ids() == stored
