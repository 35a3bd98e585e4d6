"""Tests for the network fabric.

Covers the Clos fabric itself, its one-rack case (the paper's flat star,
which ``topology="flat"`` builds), the max-min allocator's per-link
capacity conservation over multi-hop paths, and the byte-identity
promise: a one-rack Clos named ``"clos"`` must reproduce the flat
configuration's trajectories exactly — including the exported event
trace, byte for byte — so no flat-only path can creep back in.
"""

import random

import pytest

from repro.availability.generator import HostAvailability
from repro.experiments.config import EmulationConfig, Strategy
from repro.experiments.emulation import run_emulation_point
from repro.runtime.cluster import ClusterConfig, build_cluster
from repro.simulator.engine import Simulator
from repro.simulator.network import Network
from repro.simulator.scenarios import ChaosCampaign, DegradedLink
from repro.simulator.topology import (
    FABRIC_TIERS,
    TOPOLOGIES,
    TRUNK_WIDTH,
    ClosTopology,
    parse_link_spec,
)


def build(hosts=4, **knobs):
    hosts = [HostAvailability(host_id=f"node-{i:05d}") for i in range(hosts)]
    return build_cluster(hosts, ClusterConfig(detection="oracle", **knobs))


def fabric_of(**knobs):
    cluster = build(**knobs)
    cluster.stop()
    return cluster.network.topology


class TestFlatStar:
    """``topology="flat"``: the one-rack fabric, every host one switch away."""

    def test_path_is_two_access_links(self):
        flat = fabric_of(topology="flat")
        assert [flat.path(s, d) for s, d in ((3, 1), (0, 2))] == [
            (("up", 3), ("down", 1)),
            (("up", 0), ("down", 2)),
        ]

    def test_no_fabric(self):
        assert fabric_of(topology="flat").fabric_links() == ()

    def test_single_rack_single_width(self):
        flat = fabric_of(topology="flat")
        assert flat.racks == 1
        assert [flat.rack_of(n) for n in range(4)] == [0, 0, 0, 0]
        assert flat.link_width(("up", 2)) == 1

    def test_degraded_link_sampling_needs_explicit_links(self):
        campaign = ChaosCampaign(
            name="no-trunks",
            scenarios=(
                DegradedLink(start=1.0, duration=5.0, count=1, capacity_factor=0.5),
            ),
        )
        with pytest.raises(ValueError, match="explicit"):
            build(topology="flat", link_mitigation="do-nothing", chaos=campaign)

    def test_default_network_is_the_flat_star(self):
        net = Network(Simulator(), link_bps=100.0)
        assert net.topology.path("a", "b") == (("up", "a"), ("down", "b"))
        assert net.topology.fabric_links() == ()


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
        with pytest.raises(KeyError):
            clos.fabric_capacity(("up", 0))

    def test_fabric_links_deterministic_order(self):
        clos = ClosTopology(hosts=8, racks=2, host_link_bps=100.0)
        assert FABRIC_TIERS == ("tor-up", "tor-down")
        assert clos.fabric_links() == (
            ("tor-up", 0),
            ("tor-up", 1),
            ("tor-down", 0),
            ("tor-down", 1),
        )

    def test_trunk_width_applies_to_fabric_only(self):
        clos = ClosTopology(hosts=8, racks=2, host_link_bps=100.0)
        assert clos.link_width(("tor-up", 0)) == TRUNK_WIDTH == 4
        assert clos.link_width(("up", 3)) == 1

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(hosts=0, racks=1), "hosts"),
            (dict(hosts=4, racks=0), "racks"),
            (dict(hosts=4, racks=8), "racks"),
        ],
    )
    def test_shape_validation(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            ClosTopology(host_link_bps=100.0, **kwargs)


class TestLinkSpecs:
    def test_fabric_round_trip(self):
        for tier in FABRIC_TIERS:
            assert parse_link_spec(f"{tier}:3") == (tier, 3)

    def test_host_spec_with_numeric_id(self):
        assert parse_link_spec("up:17") == ("up", 17)

    def test_host_spec_interns_names(self):
        assert parse_link_spec("down:node-03", intern=lambda name: 3) == ("down", 3)

    def test_host_spec_keeps_name_without_interner(self):
        assert parse_link_spec("up:node-03") == ("up", "node-03")

    def test_known_numeric_host_name_wins_over_the_raw_id(self):
        names = {"100": 0, "101": 1}
        assert parse_link_spec("up:101", intern=names.__getitem__) == ("up", 1)
        # No host is named "1": the ident is the raw node id.
        assert parse_link_spec("up:1", intern=names.__getitem__) == ("up", 1)

    def test_unknown_host_name_rejected_with_interner(self):
        with pytest.raises(KeyError):
            parse_link_spec("up:node-99", intern={"node-00": 0}.__getitem__)

    @pytest.mark.parametrize(
        "spec", ["nonsense", "spine:1", "agg-up:0", "tor-up:abc", "up:"]
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            parse_link_spec(spec)


class TestFabricByName:
    """``ClusterConfig.topology`` picks the fabric ``build_cluster`` wires."""

    def test_flat_by_name(self):
        flat = fabric_of(topology="flat", racks=2, oversubscription=4.0)
        assert isinstance(flat, ClosTopology)
        assert flat.racks == 1

    def test_clos_by_name(self):
        clos = fabric_of(topology="clos", racks=2, oversubscription=2.0)
        assert clos.racks == 2
        # 2 hosts per rack at 1 MB/s, oversubscribed 2:1.
        assert clos.fabric_capacity(("tor-up", 0)) == 1e6

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="flat"):
            ClusterConfig(topology="hypercube")

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
    """A one-rack ``"clos"`` must be bit-identical to ``"flat"``."""

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
