"""Tests for the hierarchical topology layer.

Covers the Topology protocol implementations themselves, the max-min
allocator's per-link capacity conservation over multi-hop paths, and the
tentpole's byte-identity promise: a degenerate Clos (one rack, no
oversubscription) must reproduce the flat star's trajectories exactly —
including the exported event trace, byte for byte.
"""

import random

import pytest

from repro.experiments.config import EmulationConfig, Strategy
from repro.experiments.emulation import run_emulation_point
from repro.simulator.engine import Simulator
from repro.simulator.network import Network
from repro.simulator.topology import (
    FABRIC_TIERS,
    TOPOLOGIES,
    ClosTopology,
    FlatStar,
    format_link_spec,
    make_topology,
    parse_link_spec,
)


class TestFlatStar:
    def test_path_is_two_access_links(self):
        assert FlatStar().path(3, 7) == (("up", 3), ("down", 7))

    def test_no_fabric(self):
        flat = FlatStar()
        assert flat.fabric_links() == ()
        with pytest.raises(KeyError):
            flat.fabric_capacity(("tor-up", 0))

    def test_single_rack_single_width(self):
        flat = FlatStar()
        assert flat.rack_of(42) == 0
        assert flat.link_width(("up", 42)) == 1


class TestClosShape:
    def test_same_rack_path_is_access_only(self):
        clos = ClosTopology(hosts=8, racks=4, host_link_bps=100.0)
        # 0 and 4 share rack 0 (round-robin assignment).
        assert clos.path(0, 4) == (("up", 0), ("down", 4))

    def test_cross_rack_path_crosses_both_tor_trunks(self):
        clos = ClosTopology(hosts=8, racks=4, host_link_bps=100.0)
        assert clos.path(0, 1) == (
            ("up", 0),
            ("tor-up", 0),
            ("tor-down", 1),
            ("down", 1),
        )

    def test_cross_pod_path_crosses_aggregation(self):
        clos = ClosTopology(hosts=8, racks=4, pods=2, host_link_bps=100.0)
        # rack 0 -> pod 0, rack 1 -> pod 1.
        assert clos.path(0, 1) == (
            ("up", 0),
            ("tor-up", 0),
            ("agg-up", 0),
            ("agg-down", 1),
            ("tor-down", 1),
            ("down", 1),
        )

    def test_same_pod_cross_rack_skips_aggregation(self):
        clos = ClosTopology(hosts=8, racks=4, pods=2, host_link_bps=100.0)
        # racks 0 and 2 both map to pod 0.
        assert clos.path(0, 2) == (
            ("up", 0),
            ("tor-up", 0),
            ("tor-down", 2),
            ("down", 2),
        )

    def test_round_robin_racks_stay_balanced(self):
        clos = ClosTopology(hosts=10, racks=3, host_link_bps=100.0)
        counts = {0: 0, 1: 0, 2: 0}
        for node in range(10):
            counts[clos.rack_of(node)] += 1
        assert max(counts.values()) - min(counts.values()) <= 1

    def test_trunk_capacity_derives_from_shape(self):
        clos = ClosTopology(
            hosts=8,
            racks=2,
            host_link_bps=100.0,
            oversubscription=4.0,
        )
        # 4 hosts per rack at 100, oversubscribed 4:1, in both directions.
        assert clos.fabric_capacity(("tor-up", 0)) == 100.0
        assert clos.fabric_capacity(("tor-down", 1)) == 100.0

    def test_aggregation_capacity_oversubscribes_twice(self):
        clos = ClosTopology(
            hosts=8, racks=4, pods=2, host_link_bps=100.0, oversubscription=2.0
        )
        # tor-up: 2 hosts * 100 / 2 = 100; agg-up: 2 racks * 100 / 2 = 100.
        assert clos.fabric_capacity(("agg-up", 0)) == 100.0

    def test_fabric_links_deterministic_order(self):
        clos = ClosTopology(hosts=8, racks=2, pods=2, host_link_bps=100.0)
        assert clos.fabric_links() == (
            ("tor-up", 0),
            ("tor-up", 1),
            ("tor-down", 0),
            ("tor-down", 1),
            ("agg-up", 0),
            ("agg-up", 1),
            ("agg-down", 0),
            ("agg-down", 1),
        )

    def test_single_pod_has_no_aggregation_links(self):
        clos = ClosTopology(hosts=8, racks=2, host_link_bps=100.0)
        assert all(link[0].startswith("tor") for link in clos.fabric_links())

    def test_trunk_width_applies_to_fabric_only(self):
        clos = ClosTopology(hosts=8, racks=2, host_link_bps=100.0, trunk_width=8)
        assert clos.link_width(("tor-up", 0)) == 8
        assert clos.link_width(("up", 3)) == 1

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(hosts=0, racks=1), "hosts"),
            (dict(hosts=4, racks=0), "racks"),
            (dict(hosts=4, racks=8), "racks"),
            (dict(hosts=8, racks=4, pods=8), "pods"),
            (dict(hosts=8, racks=4, trunk_width=0), "trunk_width"),
        ],
    )
    def test_shape_validation(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            ClosTopology(host_link_bps=100.0, **kwargs)


class TestLinkSpecs:
    def test_fabric_round_trip(self):
        for tier in FABRIC_TIERS:
            link = (tier, 3)
            assert parse_link_spec(format_link_spec(link)) == link

    def test_host_spec_with_numeric_id(self):
        assert parse_link_spec("up:17") == ("up", 17)

    def test_host_spec_interns_names(self):
        assert parse_link_spec("down:node-03", intern=lambda name: 3) == ("down", 3)

    def test_host_spec_keeps_name_without_interner(self):
        assert parse_link_spec("up:node-03") == ("up", "node-03")

    @pytest.mark.parametrize("spec", ["nonsense", "spine:1", "tor-up:abc", "up:"])
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            parse_link_spec(spec)


class TestMakeTopology:
    def test_flat_by_name(self):
        assert isinstance(make_topology("flat", hosts=4, link_bps=100.0), FlatStar)

    def test_clos_by_name(self):
        topo = make_topology(
            "clos", hosts=8, link_bps=100.0, racks=2, oversubscription=2.0
        )
        assert isinstance(topo, ClosTopology)
        assert topo.racks == 2

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="flat"):
            make_topology("hypercube", hosts=4, link_bps=100.0)

    def test_topologies_registry_covers_both(self):
        assert TOPOLOGIES == ("flat", "clos")


class TestPathCapacityConservation:
    """Randomized soak: max-min rates never oversubscribe any path link."""

    def _assert_conserved(self, net):
        sums = {}
        for transfer in net.active_transfers:
            for link in transfer.path:
                sums[link] = sums.get(link, 0.0) + transfer.rate
        for link, total in sums.items():
            assert total <= net.link_capacity(link) * (1.0 + 1e-9) + 1e-6, (
                f"link {link} oversubscribed: {total}"
            )

    def test_random_transfer_soak(self):
        rng = random.Random(1234)
        sim = Simulator()
        topo = ClosTopology(
            hosts=12, racks=3, host_link_bps=100.0, oversubscription=4.0
        )
        net = Network(
            sim, link_bps=100.0, fair_sharing=True, topology=topo
        )
        for _ in range(60):
            src, dst = rng.sample(range(12), 2)
            net.start_transfer(src, dst, rng.uniform(100.0, 5000.0), lambda t: None)
            if rng.random() < 0.7:
                sim.step()
            self._assert_conserved(net)
        while sim.step():
            self._assert_conserved(net)
        assert not net.active_transfers

    def test_oversubscribed_trunk_actually_binds(self):
        # 2 racks of 2 at 100 each, trunk oversubscribed 4:1 -> 50 total
        # cross-rack; two cross-rack flows share it at 25 apiece.
        sim = Simulator()
        topo = ClosTopology(
            hosts=4, racks=2, host_link_bps=100.0, oversubscription=4.0
        )
        net = Network(sim, link_bps=100.0, fair_sharing=True, topology=topo)
        a = net.start_transfer(0, 1, 1000.0, lambda t: None)
        b = net.start_transfer(2, 3, 1000.0, lambda t: None)
        assert a.rate == pytest.approx(25.0)
        assert b.rate == pytest.approx(25.0)

    def test_same_rack_traffic_dodges_the_trunk(self):
        sim = Simulator()
        topo = ClosTopology(
            hosts=4, racks=2, host_link_bps=100.0, oversubscription=4.0
        )
        net = Network(sim, link_bps=100.0, fair_sharing=True, topology=topo)
        # 0 and 2 share rack 0: full access bandwidth, no trunk crossing.
        t = net.start_transfer(0, 2, 1000.0, lambda t: None)
        assert t.rate == pytest.approx(100.0)


@pytest.mark.slow
class TestDegenerateClosByteIdentity:
    """racks=1, oversubscription=1 must be bit-identical to the flat star."""

    CONFIG = dict(
        node_count=12, interrupted_ratio=0.5, blocks_per_node=2.0, seed=7
    )

    def test_results_bitwise_equal(self):
        flat = run_emulation_point(
            EmulationConfig(**self.CONFIG), Strategy("adapt", 1)
        )
        clos = run_emulation_point(
            EmulationConfig(**self.CONFIG, topology="clos", racks=1),
            Strategy("adapt", 1),
        )
        assert clos.elapsed == flat.elapsed
        assert clos.data_locality == flat.data_locality
        assert clos.breakdown == flat.breakdown
        assert clos.interruptions == flat.interruptions

    def test_traces_byte_equal(self, tmp_path):
        flat_path = tmp_path / "flat.jsonl"
        clos_path = tmp_path / "clos.jsonl"
        run_emulation_point(
            EmulationConfig(**self.CONFIG),
            Strategy("adapt", 1),
            trace_out=str(flat_path),
        )
        run_emulation_point(
            EmulationConfig(**self.CONFIG, topology="clos", racks=1),
            Strategy("adapt", 1),
            trace_out=str(clos_path),
        )
        assert flat_path.read_bytes() == clos_path.read_bytes()

    def test_rack_constraint_without_extra_racks_changes_nothing(self):
        # rack_aware_placement on a single-rack Clos is unsatisfiable by
        # construction and must leave the placement stream untouched.
        flat = run_emulation_point(
            EmulationConfig(**self.CONFIG), Strategy("adapt", 1)
        )
        constrained = run_emulation_point(
            EmulationConfig(
                **self.CONFIG, topology="clos", racks=1, rack_aware_placement=True
            ),
            Strategy("adapt", 1),
        )
        assert constrained.elapsed == flat.elapsed
        assert constrained.breakdown == flat.breakdown
