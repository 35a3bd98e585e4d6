"""Tests for the NameNode: namespace, locations, liveness, placement."""

import pytest

from repro.availability.estimators import AvailabilityEstimate
from repro.core.placement import AdaptPlacement, RandomPlacement
from repro.core.predictor import PerformancePredictor
from repro.hdfs.datanode import DataNode
from repro.hdfs.namenode import NameNode
from repro.simulator.events import NodeDown
from repro.util.rng import RandomSource

GAMMA = 12.0


def make_namenode(n=4, **kwargs):
    nn = NameNode(**kwargs)
    for i in range(n):
        nn.register_datanode(DataNode(f"n{i}"))
    return nn


class TestMembership:
    def test_register(self):
        nn = make_namenode(3)
        assert nn.datanode_ids == ["n0", "n1", "n2"]

    def test_duplicate_rejected(self):
        nn = make_namenode(1)
        with pytest.raises(ValueError, match="already registered"):
            nn.register_datanode(DataNode("n0"))

    def test_predictor_auto_registered(self):
        nn = make_namenode(2)
        assert nn.predictor.node_ids == ["n0", "n1"]

    def test_liveness(self):
        nn = make_namenode(2)
        nn.mark_dead("n0")
        assert not nn.is_live("n0")
        assert nn.live_nodes() == ["n1"]
        nn.mark_alive("n0")
        assert nn.is_live("n0")

    def test_unknown_node(self):
        nn = make_namenode(1)
        with pytest.raises(KeyError):
            nn.mark_dead("ghost")


class TestFileLifecycle:
    def test_create_places_all_replicas(self):
        nn = make_namenode(5)
        f = nn.create_file("f", 10, 1024, 2, RandomPlacement(), GAMMA, RandomSource(1))
        assert f.num_blocks == 10
        for b in f.blocks:
            holders = nn.replica_holders(b.block_id)
            assert len(holders) == 2
            for node_id in holders:
                assert nn.datanode(node_id).has_block(b.block_id)

    def test_duplicate_file_rejected(self):
        nn = make_namenode(2)
        nn.create_file("f", 1, 10, 1, RandomPlacement(), GAMMA, RandomSource(1))
        with pytest.raises(ValueError, match="already exists"):
            nn.create_file("f", 1, 10, 1, RandomPlacement(), GAMMA, RandomSource(1))

    def test_delete_removes_everything(self):
        nn = make_namenode(3)
        f = nn.create_file("f", 6, 10, 1, RandomPlacement(), GAMMA, RandomSource(1))
        nn.delete_file("f")
        assert nn.file_names == []
        for dn_id in nn.datanode_ids:
            assert nn.datanode(dn_id).block_count == 0
        with pytest.raises(KeyError):
            nn.replica_holders(f.blocks[0].block_id)

    def test_missing_file(self):
        nn = make_namenode(1)
        with pytest.raises(KeyError):
            nn.file("nope")

    def test_block_distribution(self):
        nn = make_namenode(4)
        nn.create_file("f", 20, 10, 1, RandomPlacement(), GAMMA, RandomSource(1))
        dist = nn.block_distribution("f")
        assert sum(dist.values()) == 20

    def test_replica_map(self):
        nn = make_namenode(3)
        f = nn.create_file("f", 4, 10, 2, RandomPlacement(), GAMMA, RandomSource(1))
        rmap = nn.replica_map("f")
        assert len(rmap) == 4
        assert all(len(h) == 2 for h in rmap.values())


class TestLocationsView:
    """``locations`` is the task path's locality query: a read-only live
    view of each block's stored holder tuple."""

    def test_unknown_block_raises_key_error(self):
        nn = make_namenode(2)
        with pytest.raises(KeyError):
            nn.locations["ghost"]

    def test_is_read_only(self):
        nn = make_namenode(2)
        nn.create_file("f", 1, 10, 1, RandomPlacement(), GAMMA, RandomSource(1))
        block_id = nn.file("f").blocks[0].block_id
        with pytest.raises(TypeError):
            nn.locations[block_id] = ()

    def test_follows_adds_moves_gc_and_purges(self):
        from repro.core.rebalance import RebalanceMove

        nn = make_namenode(4)
        nn.create_file("f", 1, 10, 1, RandomPlacement(), GAMMA, RandomSource(1))
        block_id = nn.file("f").blocks[0].block_id
        view = nn.locations
        (first,) = view[block_id]
        others = [n for n in nn.datanode_ids if n != first]

        nn.add_replica(block_id, others[0])
        assert view[block_id] == (first, others[0])  # in the order they landed
        snapshot = view[block_id]

        nn.apply_move(RebalanceMove(block_id=block_id, source=first, destination=others[1]))
        assert view[block_id] == (others[0], others[1])
        assert snapshot == (first, others[0])  # a held tuple does not change

        nn.remove_replica(block_id, others[0])
        assert view[block_id] == (others[1],)

        nn.purge_node(others[1])
        assert view[block_id] == ()
        assert set(view[block_id]) == nn.replica_holders(block_id)


class TestPlacementIntegration:
    def test_dead_nodes_excluded(self):
        nn = make_namenode(4)
        nn.mark_dead("n0")
        nn.create_file("f", 40, 10, 1, RandomPlacement(), GAMMA, RandomSource(1))
        assert nn.block_distribution("f")["n0"] == 0

    def test_physically_down_nodes_excluded(self):
        nn = make_namenode(4)
        nn.datanode("n1").handle_node_down(NodeDown(time=0.0, node_id="n1"))
        nn.create_file("f", 40, 10, 1, RandomPlacement(), GAMMA, RandomSource(1))
        assert nn.block_distribution("f")["n1"] == 0

    def test_no_liveness_filter_places_on_down_nodes(self):
        # Models data loaded before the measured window (Section V.C).
        nn = make_namenode(4, placement_liveness_filter=False)
        nn.datanode("n1").handle_node_down(NodeDown(time=0.0, node_id="n1"))
        nn.create_file("f", 400, 10, 1, RandomPlacement(), GAMMA, RandomSource(1))
        assert nn.block_distribution("f")["n1"] > 0

    def test_adapt_placement_uses_predictor(self):
        predictor = PerformancePredictor()
        nn = NameNode(predictor)
        for i in range(2):
            nn.register_datanode(DataNode(f"n{i}"))
        predictor.pin_oracle("n0", AvailabilityEstimate(0.0, 0.0, observations=1))
        predictor.pin_oracle("n1", AvailabilityEstimate(0.1, 8.0, observations=1))
        nn.create_file("f", 200, 10, 1, AdaptPlacement(capped=False), GAMMA, RandomSource(1))
        dist = nn.block_distribution("f")
        assert dist["n0"] > dist["n1"] * 2


class TestAdaptCommand:
    def test_plan_and_apply(self):
        predictor = PerformancePredictor()
        nn = NameNode(predictor)
        for i in range(3):
            nn.register_datanode(DataNode(f"n{i}"))
        predictor.pin_oracle("n0", AvailabilityEstimate(0.0, 0.0, observations=1))
        predictor.pin_oracle("n1", AvailabilityEstimate(0.1, 8.0, observations=1))
        predictor.pin_oracle("n2", AvailabilityEstimate(0.0, 0.0, observations=1))
        nn.create_file("f", 30, 10, 1, RandomPlacement(), GAMMA, RandomSource(1))
        before = nn.block_distribution("f")["n1"]
        moves = nn.plan_adapt("f", AdaptPlacement(), GAMMA, RandomSource(2))
        for move in moves:
            nn.apply_move(move)
        after = nn.block_distribution("f")["n1"]
        assert after <= before
        # Total replicas preserved.
        assert sum(nn.block_distribution("f").values()) == 30

    def test_apply_move_validation(self):
        nn = make_namenode(2)
        nn.create_file("f", 1, 10, 1, RandomPlacement(), GAMMA, RandomSource(1))
        block_id = nn.file("f").blocks[0].block_id
        holder = next(iter(nn.replica_holders(block_id)))
        other = [n for n in nn.datanode_ids if n != holder][0]
        from repro.core.rebalance import RebalanceMove

        with pytest.raises(ValueError, match="does not hold"):
            nn.apply_move(RebalanceMove(block_id=block_id, source=other, destination=holder))


class TestRackConstraint:
    def rack_of(self, node_id):
        # "n0".."n5" alternate racks by their digit.
        return int(str(node_id)[1:]) % 2

    def test_create_file_spreads_replicas_across_racks(self):
        nn = make_namenode(6)
        nn.set_rack_constraint(self.rack_of)
        f = nn.create_file("f", 30, 1024, 2, RandomPlacement(), GAMMA, RandomSource(1))
        for b in f.blocks:
            racks = {self.rack_of(n) for n in nn.replica_holders(b.block_id)}
            assert len(racks) >= 2

    def test_constraint_can_be_lifted(self):
        nn = make_namenode(6)
        nn.set_rack_constraint(self.rack_of)
        nn.set_rack_constraint(None)
        unconstrained = make_namenode(6)
        a = nn.create_file("f", 20, 1024, 2, RandomPlacement(), GAMMA, RandomSource(1))
        b = unconstrained.create_file(
            "f", 20, 1024, 2, RandomPlacement(), GAMMA, RandomSource(1)
        )
        for block_a, block_b in zip(a.blocks, b.blocks):
            assert nn.replica_holders(block_a.block_id) == unconstrained.replica_holders(
                block_b.block_id
            )
