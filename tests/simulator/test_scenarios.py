"""Declarative chaos scenarios: validation, serialisation, targeting."""

import json

import pytest

from repro.simulator.scenarios import (
    ChaosCampaign,
    DegradedLink,
    DelayedRecovery,
    FailureStorm,
    FlappingNode,
    GrayNode,
    NetworkPartition,
    scenario_from_jsonable,
)
from repro.simulator.topology import ClosTopology
from repro.util.rng import RandomSource

NODES = [f"n{i}" for i in range(8)]


def storm(**kw):
    defaults = dict(start=10.0, duration=30.0)
    defaults.update(kw)
    return FailureStorm(**defaults)


class TestValidation:
    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            storm(start=-1.0)

    def test_non_positive_duration_rejected(self):
        with pytest.raises(ValueError):
            storm(duration=0.0)

    def test_negative_stagger_rejected(self):
        with pytest.raises(ValueError):
            storm(stagger=-0.5)

    def test_flap_needs_at_least_one_cycle(self):
        with pytest.raises(ValueError):
            FlappingNode(start=0.0, cycles=0, down_time=5.0, up_time=5.0)

    def test_gray_link_factor_is_a_throttle(self):
        with pytest.raises(ValueError):
            GrayNode(start=0.0, duration=10.0, link_factor=1.5)
        with pytest.raises(ValueError):
            GrayNode(start=0.0, duration=10.0, link_factor=0.0)

    def test_gray_exec_factor_is_a_slowdown(self):
        with pytest.raises(ValueError):
            GrayNode(start=0.0, duration=10.0, exec_factor=0.5)

    def test_delayed_recovery_stretch_lower_bound(self):
        with pytest.raises(ValueError):
            DelayedRecovery(start=0.0, duration=10.0, stretch=0.9)

    def test_campaign_requires_scenarios_and_name(self):
        with pytest.raises(ValueError):
            ChaosCampaign(name="x", scenarios=())
        with pytest.raises(ValueError):
            ChaosCampaign(name="", scenarios=(storm(),))
        with pytest.raises(TypeError):
            ChaosCampaign(name="x", scenarios=("not a scenario",))

    def test_campaign_slo_factor_positive(self):
        with pytest.raises(ValueError):
            ChaosCampaign(name="x", scenarios=(storm(),), slo_factor=0.0)


class TestWindows:
    def test_storm_end_includes_stagger(self):
        assert storm(stagger=4.0).end() == 44.0

    def test_flap_end_covers_all_cycles(self):
        flap = FlappingNode(start=10.0, cycles=3, down_time=4.0, up_time=6.0)
        assert flap.end() == 40.0

    def test_campaign_horizon_is_latest_end(self):
        campaign = ChaosCampaign(
            name="h",
            scenarios=(storm(), NetworkPartition(start=100.0, duration=20.0)),
        )
        assert campaign.horizon() == 120.0


class TestTargetResolution:
    def test_explicit_nodes_used_verbatim(self):
        s = storm(nodes=("n3", "n1"))
        assert s.resolve_targets(NODES, RandomSource(1)) == ("n3", "n1")

    def test_unknown_explicit_node_rejected(self):
        s = storm(nodes=("n99",))
        with pytest.raises(ValueError, match="unknown nodes"):
            s.resolve_targets(NODES, RandomSource(1))

    def test_default_targets_every_node_sorted(self):
        shuffled = ["n5", "n0", "n3", "n1"]
        s = storm()
        assert s.resolve_targets(shuffled, RandomSource(1)) == ("n0", "n1", "n3", "n5")

    def test_count_at_least_cluster_size_targets_all(self):
        s = storm(count=50)
        assert s.resolve_targets(NODES, RandomSource(1)) == tuple(sorted(NODES))

    def test_sampled_targets_are_seed_deterministic(self):
        s = storm(count=3)
        first = s.resolve_targets(NODES, RandomSource(9).substream("chaos", 0))
        second = s.resolve_targets(NODES, RandomSource(9).substream("chaos", 0))
        assert first == second
        assert len(first) == 3
        assert set(first) <= set(NODES)

    def test_different_seed_can_pick_differently(self):
        s = storm(count=3)
        picks = {
            s.resolve_targets(NODES, RandomSource(seed).substream("chaos", 0))
            for seed in range(12)
        }
        assert len(picks) > 1


class TestSerialisation:
    def campaign(self):
        return ChaosCampaign(
            name="roundtrip",
            slo_factor=1.5,
            scenarios=(
                storm(stagger=1.0, count=3),
                FlappingNode(start=50.0, cycles=2, down_time=3.0, up_time=4.0, nodes=("n1",)),
                NetworkPartition(start=80.0, duration=20.0, isolate_heartbeats=True, count=2),
                GrayNode(start=90.0, duration=30.0, link_factor=0.5, exec_factor=2.0),
                DelayedRecovery(start=0.0, duration=200.0, stretch=3.0, count=4),
                DegradedLink(
                    start=110.0,
                    duration=25.0,
                    links=("tor-up:1", "up:n3"),
                    capacity_factor=0.5,
                    corruption_rate=0.1,
                ),
            ),
        )

    def test_jsonable_roundtrip_is_identity(self):
        campaign = self.campaign()
        assert ChaosCampaign.from_jsonable(campaign.to_jsonable()) == campaign

    def test_file_roundtrip(self, tmp_path):
        campaign = self.campaign()
        path = str(tmp_path / "campaign.json")
        campaign.dump(path)
        assert ChaosCampaign.load(path) == campaign

    def test_jsonable_survives_json_encoding(self):
        campaign = self.campaign()
        wire = json.loads(json.dumps(campaign.to_jsonable()))
        assert ChaosCampaign.from_jsonable(wire) == campaign

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario kind"):
            scenario_from_jsonable({"kind": "meteor", "start": 0.0})

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown fields"):
            scenario_from_jsonable(
                {"kind": "storm", "start": 0.0, "duration": 5.0, "blast_radius": 3}
            )

    def test_spec_json_is_canonical(self):
        s = storm(nodes=("n1", "n0"))
        spec = s.spec_json()
        assert spec == s.spec_json()
        assert json.loads(spec)["kind"] == "storm"
        assert json.loads(spec)["nodes"] == ["n1", "n0"]

    def test_scenarios_list_must_be_a_list(self):
        with pytest.raises(ValueError, match="must be a list"):
            ChaosCampaign.from_jsonable({"name": "x", "scenarios": "storm"})


class TestDegradedLink:
    def window(self, **kw):
        defaults = dict(start=10.0, duration=20.0, capacity_factor=0.5)
        defaults.update(kw)
        return DegradedLink(**defaults)

    def clos(self):
        return ClosTopology(hosts=8, racks=4, host_link_bps=100.0)

    def test_must_degrade_something(self):
        with pytest.raises(ValueError, match="degrade something"):
            DegradedLink(start=0.0, duration=5.0)

    def test_capacity_factor_bounds(self):
        with pytest.raises(ValueError, match="capacity_factor"):
            self.window(capacity_factor=1.5)
        with pytest.raises(ValueError):
            self.window(capacity_factor=0.0)

    def test_corruption_rate_bounds(self):
        with pytest.raises(ValueError, match="corruption_rate"):
            self.window(capacity_factor=1.0, corruption_rate=1.0)

    def test_corruption_alone_is_a_degradation(self):
        s = DegradedLink(start=0.0, duration=5.0, corruption_rate=0.2)
        assert s.capacity_factor == 1.0

    def test_end_is_start_plus_duration(self):
        assert self.window().end() == 30.0

    def test_explicit_links_parsed_verbatim(self):
        s = self.window(links=("tor-up:3", "up:7"))
        links = s.resolve_links(self.clos(), RandomSource(1))
        assert links == (("tor-up", 3), ("up", 7))

    def test_explicit_host_names_interned(self):
        s = self.window(links=("up:node-05",))
        links = s.resolve_links(self.clos(), RandomSource(1), intern=lambda n: 5)
        assert links == (("up", 5),)

    def test_count_zero_degrades_every_fabric_link(self):
        s = self.window(count=0)
        assert s.resolve_links(self.clos(), RandomSource(1)) == self.clos().fabric_links()

    def test_sampled_links_are_seed_deterministic(self):
        s = self.window(count=3)
        first = s.resolve_links(self.clos(), RandomSource(9).substream("chaos", 0))
        second = s.resolve_links(self.clos(), RandomSource(9).substream("chaos", 0))
        assert first == second
        assert len(first) == 3
        assert set(first) <= set(self.clos().fabric_links())

    def test_flat_star_needs_explicit_links(self):
        s = self.window(count=2)
        with pytest.raises(ValueError, match="explicit"):
            s.resolve_links(
                ClosTopology(hosts=8, racks=1, host_link_bps=100.0), RandomSource(1)
            )

    def test_jsonable_roundtrip(self):
        s = self.window(links=("tor-up:1",), corruption_rate=0.25)
        assert scenario_from_jsonable(s.to_jsonable()) == s
