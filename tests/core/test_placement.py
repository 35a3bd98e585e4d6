"""Tests for the placement policies (existing / naive / ADAPT)."""

import hashlib
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.availability.estimators import AvailabilityEstimate
from repro.core.hashtable import WeightedHashTable
from repro.core.model import expected_task_time
from repro.core.placement import (
    AdaptPlacement,
    NaivePlacement,
    NodeView,
    RandomPlacement,
    make_policy,
)
from repro.experiments.config import SimulationConfig
from repro.util.rng import RandomSource

GAMMA = 12.0


def view(node_id, mtbi=None, mu=0.0, up=True):
    rate = 0.0 if mtbi is None else 1.0 / mtbi
    return NodeView(
        node_id=node_id,
        estimate=AvailabilityEstimate(arrival_rate=rate, recovery_mean=mu, observations=1),
        is_up=up,
    )


def table2_views():
    """4 dedicated + one node from each Table 2 group."""
    nodes = [view(f"d{i}") for i in range(4)]
    nodes.append(view("g1", mtbi=10.0, mu=4.0))
    nodes.append(view("g2", mtbi=10.0, mu=8.0))
    nodes.append(view("g3", mtbi=20.0, mu=4.0))
    nodes.append(view("g4", mtbi=20.0, mu=8.0))
    return nodes


def run_plan(policy, nodes, num_blocks, replication=1, seed=0):
    plan = policy.build_plan(nodes, num_blocks, replication, GAMMA)
    rng = RandomSource(seed)
    for _ in range(num_blocks):
        plan.choose_replicas(rng)
    return plan


class TestRandomPlacement:
    def test_uniform_distribution(self):
        nodes = [view(f"n{i}") for i in range(8)]
        plan = run_plan(RandomPlacement(), nodes, 4000)
        counts = plan.allocations()
        for _node_id, count in counts.items():
            assert count == pytest.approx(500, abs=100)

    def test_replicas_distinct(self):
        nodes = [view(f"n{i}") for i in range(5)]
        plan = RandomPlacement().build_plan(nodes, 10, 3, GAMMA)
        rng = RandomSource(1)
        for _ in range(10):
            holders = plan.choose_replicas(rng)
            assert len(set(holders)) == 3

    def test_excludes_down_nodes(self):
        nodes = [view("up0"), view("up1"), view("down", up=False)]
        plan = run_plan(RandomPlacement(), nodes, 100)
        assert plan.allocation("down") == 0

    def test_needs_enough_up_nodes(self):
        nodes = [view("a"), view("b", up=False)]
        with pytest.raises(ValueError, match="up nodes"):
            RandomPlacement().build_plan(nodes, 5, 2, GAMMA)


class TestAdaptPlacement:
    def test_weights_proportional_to_inverse_expected_time(self):
        nodes = table2_views()
        plan = run_plan(AdaptPlacement(capped=False), nodes, 12000)
        counts = plan.allocations()
        # The ratio dedicated : group2 should approximate E[T]_g2 / gamma.
        t_g2 = expected_task_time(GAMMA, 0.1, 8.0)
        expected_ratio = t_g2 / GAMMA
        measured_ratio = counts["d0"] / max(counts["g2"], 1)
        assert measured_ratio == pytest.approx(expected_ratio, rel=0.35)

    def test_dedicated_get_most_blocks(self):
        plan = run_plan(AdaptPlacement(), table2_views(), 4000)
        counts = plan.allocations()
        worst_group = max(counts["g1"], counts["g2"])
        assert counts["d0"] > worst_group

    def test_homogeneous_equals_uniform(self):
        # The superset claim: identical availability -> uniform placement.
        nodes = [view(f"n{i}", mtbi=10.0, mu=4.0) for i in range(6)]
        plan = run_plan(AdaptPlacement(), nodes, 6000)
        for count in plan.allocations().values():
            assert count == pytest.approx(1000, rel=0.15)

    def test_threshold_cap_enforced(self):
        # m(k+1)/n cap: with m=100, k=1, n=5 -> max 40 per node.
        nodes = [view("fast"), *(view(f"slow{i}", mtbi=10.0, mu=8.0) for i in range(4))]
        plan = run_plan(AdaptPlacement(capped=True), nodes, 100)
        cap = math.ceil(100 * 2 / 5)
        assert plan.allocation("fast") <= cap

    def test_uncapped_exceeds_threshold(self):
        nodes = [view("fast"), *(view(f"slow{i}", mtbi=10.0, mu=8.0) for i in range(4))]
        plan = run_plan(AdaptPlacement(capped=False), nodes, 100, seed=3)
        assert plan.allocation("fast") > math.ceil(100 * 2 / 5)

    def test_unstable_node_gets_nothing(self):
        nodes = [view("ok"), view("dead", mtbi=1.0, mu=5.0), view("ok2")]
        plan = run_plan(AdaptPlacement(), nodes, 300)
        assert plan.allocation("dead") == 0

    def test_total_mass_conserved(self):
        nodes = table2_views()
        plan = run_plan(AdaptPlacement(), nodes, 500, replication=1)
        assert sum(plan.allocations().values()) == 500

    def test_total_mass_with_replication(self):
        nodes = table2_views()
        plan = run_plan(AdaptPlacement(), nodes, 200, replication=2)
        assert sum(plan.allocations().values()) == 400

    @given(st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=100))
    @settings(max_examples=30, deadline=None)
    def test_replicas_always_distinct(self, k, seed):
        nodes = table2_views()
        plan = AdaptPlacement().build_plan(nodes, 50, k, GAMMA)
        rng = RandomSource(seed)
        for _ in range(50):
            holders = plan.choose_replicas(rng)
            assert len(holders) == k
            assert len(set(holders)) == k


class TestNaivePlacement:
    def test_weights_by_availability(self):
        # naive weight = (MTBI - mu)/MTBI: g2 gets 0.2, dedicated 1.0.
        nodes = [view("d0"), view("g2", mtbi=10.0, mu=8.0)]
        plan = run_plan(NaivePlacement(), nodes, 6000)
        ratio = plan.allocation("d0") / max(plan.allocation("g2"), 1)
        assert ratio == pytest.approx(5.0, rel=0.25)

    def test_naive_less_aggressive_than_adapt(self):
        # ADAPT's E[T] penalises g2 (ratio ~9.7) harder than naive (5.0).
        nodes = [view("d0"), view("g2", mtbi=10.0, mu=8.0)]
        naive = run_plan(NaivePlacement(), nodes, 6000)
        adapt = run_plan(AdaptPlacement(capped=False), nodes, 6000)
        naive_ratio = naive.allocation("d0") / max(naive.allocation("g2"), 1)
        adapt_ratio = adapt.allocation("d0") / max(adapt.allocation("g2"), 1)
        assert adapt_ratio > naive_ratio


class TestFactoryAndFallbacks:
    def test_make_policy(self):
        assert isinstance(make_policy("existing"), RandomPlacement)
        assert isinstance(make_policy("random"), RandomPlacement)
        assert isinstance(make_policy("naive"), NaivePlacement)
        assert isinstance(make_policy("adapt"), AdaptPlacement)
        with pytest.raises(ValueError, match="unknown placement policy"):
            make_policy("magic")

    def test_all_capped_falls_back(self):
        # Tiny cluster where every node caps out: ingest must still finish.
        nodes = [view("a"), view("b")]
        plan = AdaptPlacement(capped=True).build_plan(nodes, 4, 2, GAMMA)
        rng = RandomSource(1)
        total = 0
        for _ in range(4):
            total += len(plan.choose_replicas(rng))
        assert total == 8

    def test_eligible_nodes_shrink_at_cap(self):
        nodes = [view("a"), view("b"), view("c")]
        plan = AdaptPlacement(capped=True).build_plan(nodes, 3, 1, GAMMA)
        rng = RandomSource(1)
        for _ in range(3):
            plan.choose_replicas(rng)
        assert len(plan.eligible_nodes) <= 3


class TestBatchedPlacement:
    """choose_replicas_many and the incremental cap-check must be
    byte-identical to the per-block path — the ingest goldens depend on
    the exact per-block RNG draw order."""

    @pytest.mark.parametrize(
        "policy",
        [
            RandomPlacement(),
            NaivePlacement(capped=True),
            AdaptPlacement(capped=True),
            AdaptPlacement(capped=False),
        ],
        ids=["existing", "naive-capped", "adapt-capped", "adapt-uncapped"],
    )
    def test_many_matches_per_block_loop(self, policy):
        nodes = table2_views()
        num_blocks, replication = 120, 2
        plan_a = policy.build_plan(nodes, num_blocks, replication, GAMMA)
        rng_a = RandomSource(11)
        loop = [plan_a.choose_replicas(rng_a) for _ in range(num_blocks)]

        plan_b = policy.build_plan(nodes, num_blocks, replication, GAMMA)
        rng_b = RandomSource(11)
        batched = plan_b.choose_replicas_many(rng_b, num_blocks)

        assert loop == batched
        assert plan_a.allocations() == plan_b.allocations()
        # The RNG end state matches too: no extra or missing draws.
        assert rng_a.random() == rng_b.random()

    def test_cap_rebuild_instants_match_reference_full_scan(self):
        # Small cluster + tight threshold: the cap fires repeatedly. The
        # incremental chosen-set check must rebuild the weighted table at
        # exactly the instants the original full-table scan did, which
        # byte-identity of the draw stream already certifies; this pins
        # the cap itself — no node exceeds the threshold.
        nodes = table2_views()
        num_blocks, replication = 60, 2
        plan = AdaptPlacement(capped=True).build_plan(
            nodes, num_blocks, replication, GAMMA
        )
        plan.choose_replicas_many(RandomSource(5), num_blocks)
        n = len(nodes)
        cap = max(int(math.ceil(num_blocks * (replication + 1) / n)), 1)
        assert all(count <= cap for count in plan.allocations().values())
        assert sum(plan.allocations().values()) == num_blocks * replication

    @pytest.mark.parametrize(
        "replication, digest", [(1, "fb62a8a70d47469a"), (2, "6f07f266f7bfce05")]
    )
    def test_rebuild_heavy_capped_adapt_pinned(self, monkeypatch, replication, digest):
        # 64 SETI hosts and 6400 blocks: the cap fires 29 times, and each
        # time the table is rebuilt over 6400 slots. Pins the number of
        # tables built and the whole replica stream.
        views = [
            NodeView(
                node_id=h.host_id,
                estimate=AvailabilityEstimate(
                    arrival_rate=h.arrival_rate, recovery_mean=h.service_mean, observations=1
                ),
            )
            for h in SimulationConfig(node_count=64, seed=1).hosts()
        ]
        builds = []
        table_init = WeightedHashTable.__init__

        def counting_init(table, *args, **kwargs):
            builds.append(table)
            table_init(table, *args, **kwargs)

        monkeypatch.setattr(WeightedHashTable, "__init__", counting_init)
        plan = AdaptPlacement().build_plan(views, 6400, replication, 100.0)
        replica_lists = plan.choose_replicas_many(RandomSource(3), 6400)
        assert len(builds) == 30
        assert hashlib.sha256(json.dumps(replica_lists).encode()).hexdigest()[:16] == digest


class TestRackConstraint:
    """The HDFS off-rack rule composed onto the policy's weighting."""

    def views(self, n=8):
        return [view(i) for i in range(n)]

    def rack_of(self, node_id):
        return int(node_id) % 2

    def constrained_plan(self, replication=2, num_blocks=40, policy=None):
        policy = policy if policy is not None else RandomPlacement()
        plan = policy.build_plan(self.views(), num_blocks, replication, GAMMA)
        plan.set_rack_constraint(self.rack_of)
        return plan

    def test_every_replica_set_spans_two_racks(self):
        plan = self.constrained_plan()
        rng = RandomSource(3)
        for _ in range(40):
            chosen = plan.choose_replicas(rng)
            assert len({self.rack_of(n) for n in chosen}) >= 2

    def test_adapt_policy_also_spreads(self):
        nodes = [view(i) if i < 4 else view(i, mtbi=10.0, mu=4.0) for i in range(8)]
        plan = AdaptPlacement().build_plan(nodes, 40, 2, GAMMA)
        plan.set_rack_constraint(self.rack_of)
        rng = RandomSource(3)
        for _ in range(40):
            chosen = plan.choose_replicas(rng)
            assert len({self.rack_of(n) for n in chosen}) >= 2

    def test_single_replica_unconstrained(self):
        plan = self.constrained_plan(replication=1)
        chosen = plan.choose_replicas(RandomSource(3))
        assert len(chosen) == 1

    def test_constraint_consumes_no_randomness(self):
        # Same seed, with and without the constraint: identical RNG end
        # state, so enabling rack awareness never shifts other draws.
        policy = RandomPlacement()
        plan_a = policy.build_plan(self.views(), 40, 2, GAMMA)
        rng_a = RandomSource(11)
        for _ in range(40):
            plan_a.choose_replicas(rng_a)
        plan_b = policy.build_plan(self.views(), 40, 2, GAMMA)
        plan_b.set_rack_constraint(self.rack_of)
        rng_b = RandomSource(11)
        for _ in range(40):
            plan_b.choose_replicas(rng_b)
        assert rng_a.random() == rng_b.random()

    def test_single_rack_cluster_left_unchanged(self):
        policy = RandomPlacement()
        plan_a = policy.build_plan(self.views(), 20, 2, GAMMA)
        picks_a = [plan_a.choose_replicas(RandomSource(7).substream("p", i)) for i in range(20)]
        plan_b = policy.build_plan(self.views(), 20, 2, GAMMA)
        plan_b.set_rack_constraint(lambda node_id: 0)  # everyone in rack 0
        picks_b = [plan_b.choose_replicas(RandomSource(7).substream("p", i)) for i in range(20)]
        assert picks_a == picks_b

    def test_substitute_is_least_allocated_off_rack(self):
        plan = self.constrained_plan(num_blocks=4)
        # Force the situation: both picks in rack 0 (even ids).
        fixed = plan._fix_rack_spread([0, 2], 2)
        assert len({self.rack_of(n) for n in fixed}) == 2
        assert fixed[0] == 0  # first pick stands; only the last is swapped
