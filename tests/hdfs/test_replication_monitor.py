"""Tests for the re-replication monitor: healing, priority, backoff, GC."""

import pytest

from repro.core.placement import RandomPlacement
from repro.hdfs.datanode import DataNode
from repro.hdfs.namenode import NameNode
from repro.hdfs.replication_monitor import ReplicationMonitor
from repro.simulator.engine import Simulator
from repro.simulator.events import (
    EventBus,
    NodeDeclaredDead,
    NodePurged,
    NodeReturned,
    Phase,
    ReplicaAdded,
)
from repro.simulator.network import Network
from repro.util.rng import RandomSource

GAMMA = 10.0
SIZE = 1000.0  # bytes; at 100 B/s an uncontended copy takes 10 s


def setup(nodes=4, blocks=4, replication=2, **kw):
    sim = Simulator()
    nn = NameNode()
    for i in range(nodes):
        nn.register_datanode(DataNode(f"n{i}"))
    net = Network(sim, link_bps=100.0)
    mon = ReplicationMonitor(sim, nn, net, **kw)
    f = nn.create_file("f", blocks, SIZE, replication, RandomPlacement(), GAMMA, RandomSource(7))
    return sim, nn, net, mon, f


def relocate(nn, block_id, holders):
    """Force a block's replica set to exactly ``holders``."""
    current = set(nn.replica_holders(block_id))
    for h in holders:
        if h not in current:
            nn.add_replica(block_id, h)
    for h in sorted(current - set(holders)):
        nn.remove_replica(block_id, h)


def live_physical(nn, block_id):
    return [
        h
        for h in nn.replica_holders(block_id)
        if nn.is_live(h) and nn.datanode(h).has_block(block_id)
    ]


class TestHealing:
    def test_dead_node_blocks_healed_to_target(self):
        sim, nn, net, mon, f = setup()
        on_n0 = nn.located_on("n0")
        assert on_n0, "seed must place something on n0"
        nn.mark_dead("n0")
        mon.handle_node_dead(NodeDeclaredDead(time=0.0, node_id="n0"))
        sim.run()
        assert nn.under_replicated() == {}
        for block in f.blocks:
            assert len(live_physical(nn, block.block_id)) == 2
        assert mon.metrics.rereplications_completed == len(on_n0)
        assert mon.metrics.rereplication_bytes == pytest.approx(SIZE * len(on_n0))
        assert mon.is_idle()

    def test_replica_callback_fires_per_landed_copy(self):
        landed = []
        bus = EventBus()
        bus.subscribe(
            ReplicaAdded, lambda e: landed.append((e.block_id, e.node_id)), Phase.SCHEDULING
        )
        sim, nn, net, mon, f = setup(bus=bus)
        nn.mark_dead("n0")
        mon.handle_node_dead(NodeDeclaredDead(time=0.0, node_id="n0"))
        sim.run()
        assert sorted(b for b, _n in landed) == nn.located_on("n0")
        for block_id, node_id in landed:
            assert nn.datanode(node_id).has_block(block_id)

    def test_lowest_live_count_jumps_the_queue(self):
        sim, nn, net, mon, f = setup(blocks=2, replication=3, max_concurrent=1)
        b0, b1 = (block.block_id for block in f.blocks)
        relocate(nn, b0, {"n0", "n1"})  # live 2 of 3
        relocate(nn, b1, {"n0"})        # live 1 of 3: more urgent
        # n0 alive: the declaration just (re)considers its blocks.
        mon.handle_node_dead(NodeDeclaredDead(time=0.0, node_id="n0"))
        assert mon.inflight_count == 1
        (active,) = net.active_transfers
        assert active.label == f"rereplicate:{b1}"


class TestMidCopyFailure:
    def one_block_on_n0(self, **kw):
        """Start a heal of the sole replica on n0, killing n0 mid-copy at t=4."""
        sim, nn, net, mon, f = setup(blocks=1, replication=2, **kw)
        block_id = f.blocks[0].block_id
        relocate(nn, block_id, {"n0"})
        mon.handle_node_dead(NodeDeclaredDead(time=0.0, node_id="n0"))
        assert mon.inflight_count == 1

        def die():
            nn.mark_dead("n0")
            net.cancel_involving("n0")
            mon.handle_node_dead(NodeDeclaredDead(time=sim.now, node_id="n0"))

        sim.schedule(4.0, die)
        return sim, nn, net, mon, block_id

    def test_source_death_backs_off_then_recovers(self):
        sim, nn, net, mon, block_id = self.one_block_on_n0(backoff_base=5.0)
        sim.run(until=100.0)
        assert mon.metrics.rereplication_failures == 1
        assert mon.metrics.rereplication_retries == 1
        # The backoff retry found no live source and parked the block.
        assert mon.metrics.rereplications_completed == 0
        assert mon.is_idle()
        # The holder's return re-queues it and the heal completes.
        nn.mark_alive("n0")
        mon.handle_node_returned(NodeReturned(time=100.0, node_id="n0"))
        sim.run()
        assert mon.metrics.rereplications_completed == 1
        assert len(live_physical(nn, block_id)) == 2

    def test_retry_budget_exhaustion_abandons(self):
        sim, nn, net, mon, block_id = self.one_block_on_n0(retry_budget=0)
        sim.run(until=100.0)
        assert mon.metrics.rereplication_abandoned == 1
        assert mon.metrics.rereplication_retries == 0
        assert mon.is_idle()

    def test_partial_traffic_of_failed_copy_counted(self):
        sim, nn, net, mon, block_id = self.one_block_on_n0()
        sim.run(until=4.0)
        assert mon.metrics.rereplication_bytes == pytest.approx(400.0)


class TestHolderReturn:
    def setup_shared_block(self):
        sim, nn, net, mon, f = setup(blocks=1, replication=2)
        block_id = f.blocks[0].block_id
        relocate(nn, block_id, {"n0", "n1"})
        nn.mark_dead("n0")
        mon.handle_node_dead(NodeDeclaredDead(time=0.0, node_id="n0"))
        assert mon.inflight_count == 1
        return sim, nn, net, mon, block_id

    def test_return_cancels_moot_inflight_copy(self):
        sim, nn, net, mon, block_id = self.setup_shared_block()

        def back():
            nn.mark_alive("n0")
            mon.handle_node_returned(NodeReturned(time=sim.now, node_id="n0"))

        sim.schedule(2.0, back)
        sim.run(until=2.0)
        assert mon.inflight_count == 0
        assert net.active_transfers == []
        # Our own cancellation is not a copy failure, but the partial
        # traffic was still spent.
        assert mon.metrics.rereplication_failures == 0
        assert mon.metrics.rereplication_bytes == pytest.approx(200.0)
        assert nn.replica_holders(block_id) == {"n0", "n1"}
        assert mon.is_idle()

    def test_return_garbage_collects_stale_copy(self):
        sim, nn, net, mon, block_id = self.setup_shared_block()
        sim.run()  # heal completes while n0 is away
        assert len(nn.replica_holders(block_id)) == 3
        nn.mark_alive("n0")
        mon.handle_node_returned(NodeReturned(time=sim.now, node_id="n0"))
        # The returner's copy is the stale one: dropped first.
        assert "n0" not in nn.replica_holders(block_id)
        assert len(nn.replica_holders(block_id)) == 2
        assert mon.metrics.overreplicated_removed == 1


class TestPermanentLoss:
    def test_purge_records_loss_and_heals_the_rest(self):
        purged = []
        bus = EventBus()
        bus.subscribe(NodePurged, lambda e: purged.append(e.node_id), Phase.DETECTION)
        sim, nn, net, mon, f = setup(
            blocks=2,
            replication=2,
            is_permanent=lambda n: n == "n0",
            bus=bus,
        )
        b0, b1 = (block.block_id for block in f.blocks)
        relocate(nn, b0, {"n0", "n1"})
        relocate(nn, b1, {"n0"})  # sole replica: unrecoverable
        nn.mark_dead("n0")
        mon.handle_node_dead(NodeDeclaredDead(time=0.0, node_id="n0"))
        assert purged == ["n0"]
        assert nn.replica_holders(b1) == set()
        assert mon.metrics.blocks_lost == 1
        sim.run()
        assert len(live_physical(nn, b0)) == 2


class TestTeardown:
    def test_stop_cancels_queue_retries_and_copies(self):
        sim, nn, net, mon, f = setup(max_concurrent=1)
        nn.mark_dead("n0")
        mon.handle_node_dead(NodeDeclaredDead(time=0.0, node_id="n0"))
        assert mon.inflight_count == 1
        mon.stop()
        assert net.active_transfers == []
        assert mon.is_idle()
        sim.run()
        assert mon.metrics.rereplications_completed == 0
        # A stopped monitor ignores further signals.
        mon.handle_node_dead(NodeDeclaredDead(time=0.0, node_id="n1"))
        assert mon.is_idle()
