"""Property-based tests for placement mass conservation and proportionality."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.availability.estimators import AvailabilityEstimate
from repro.core.placement import (
    AdaptPlacement,
    NaivePlacement,
    NodeView,
    RandomPlacement,
)
from repro.util.rng import RandomSource

GAMMA = 12.0

host_specs = st.lists(
    st.tuples(
        st.sampled_from([None, 10.0, 20.0, 100.0, 1000.0]),  # MTBI (None=dedicated)
        st.sampled_from([2.0, 4.0, 8.0]),  # recovery mean
    ),
    min_size=2,
    max_size=10,
)


def make_views(specs):
    views = []
    for i, (mtbi, mu) in enumerate(specs):
        rate = 0.0 if mtbi is None else 1.0 / mtbi
        views.append(
            NodeView(
                node_id=f"n{i:02d}",
                estimate=AvailabilityEstimate(
                    arrival_rate=rate,
                    recovery_mean=0.0 if mtbi is None else mu,
                    observations=1,
                ),
            )
        )
    return views


policies = st.sampled_from(
    [RandomPlacement(), NaivePlacement(), AdaptPlacement(), AdaptPlacement(capped=False)]
)


class TestMassConservation:
    @given(host_specs, policies, st.integers(min_value=1, max_value=60),
           st.integers(min_value=0, max_value=500))
    @settings(max_examples=80, deadline=None)
    def test_every_block_placed_exactly_k_times(self, specs, policy, blocks, seed):
        views = make_views(specs)
        k = min(2, len(views))
        plan = policy.build_plan(views, blocks, k, GAMMA)
        rng = RandomSource(seed)
        for _ in range(blocks):
            holders = plan.choose_replicas(rng)
            assert len(holders) == k
            assert len(set(holders)) == k
            assert all(h in {v.node_id for v in views} for h in holders)
        assert sum(plan.allocations().values()) == blocks * k

    @given(host_specs, st.integers(min_value=0, max_value=500))
    @settings(max_examples=50, deadline=None)
    def test_adapt_prefers_more_reliable(self, specs, seed):
        views = make_views(specs)
        mtbis = [spec[0] for spec in specs]
        if None not in mtbis or 10.0 not in mtbis:
            return  # need both extremes to compare
        plan = AdaptPlacement(capped=False).build_plan(views, 400, 1, GAMMA)
        rng = RandomSource(seed)
        for _ in range(400):
            plan.choose_replicas(rng)
        allocations = plan.allocations()
        best = max(
            (v for v, s in zip(views, specs, strict=True) if s[0] is None),
            key=lambda v: allocations[v.node_id],
        )
        worst = min(
            (v for v, s in zip(views, specs, strict=True) if s[0] == 10.0),
            key=lambda v: allocations[v.node_id],
        )
        # A dedicated node never gets fewer blocks than the flakiest node
        # minus sampling noise.
        assert allocations[best.node_id] >= allocations[worst.node_id] - 5

    @given(host_specs, st.integers(min_value=0, max_value=100))
    @settings(max_examples=30, deadline=None)
    def test_capped_plan_respects_threshold(self, specs, seed):
        views = make_views(specs)
        blocks = 8 * len(views)
        k = 1
        plan = AdaptPlacement(capped=True).build_plan(views, blocks, k, GAMMA)
        rng = RandomSource(seed)
        for _ in range(blocks):
            plan.choose_replicas(rng)
        import math

        cap = max(int(math.ceil(blocks * (k + 1) / len(views))), 1)
        for _node_id, count in plan.allocations().items():
            assert count <= cap
