"""Engine and placement micro-benchmarks (simulator capacity planning).

Not a paper figure: these measure the substrate itself — event-loop
throughput, flow-level network reallocation, and per-policy placement
decision rates — so regressions in the hot paths are visible.
"""

from repro.availability.estimators import AvailabilityEstimate
from repro.core.placement import AdaptPlacement, NodeView, RandomPlacement
from repro.simulator.engine import Simulator
from repro.simulator.network import Network
from repro.util.rng import RandomSource


def test_engine_event_throughput(benchmark):
    """Schedule-and-fire cost of a trivial event chain."""

    def run():
        sim = Simulator()
        count = 50_000
        state = {"left": count}

        def tick():
            state["left"] -= 1
            if state["left"] > 0:
                sim.schedule(1.0, tick)

        sim.schedule(0.0, tick)
        sim.run()
        return sim.events_fired

    fired = benchmark(run)
    assert fired == 50_000


def test_network_fair_share_reallocation(benchmark):
    """Max-min reallocation with dozens of concurrent flows."""

    def run():
        sim = Simulator()
        net = Network(sim, link_bps=1e6, fair_sharing=True)
        done = []
        for i in range(60):
            net.start_transfer(f"s{i % 6}", f"d{i}", 1e6, done.append)
        sim.run()
        return len(done)

    completed = benchmark(run)
    assert completed == 60


def test_placement_decision_rate(benchmark):
    """ADAPT placement decisions for a 256-node, 5120-block ingest."""
    views = [
        NodeView(
            f"n{i}",
            AvailabilityEstimate(
                arrival_rate=0.0 if i % 2 == 0 else 0.05,
                recovery_mean=0.0 if i % 2 == 0 else 4.0,
                observations=1,
            ),
        )
        for i in range(256)
    ]

    def run():
        plan = AdaptPlacement().build_plan(views, 5120, 1, 12.0)
        rng = RandomSource(1)
        for _ in range(5120):
            plan.choose_replicas(rng)
        return sum(plan.allocations().values())

    total = benchmark(run)
    assert total == 5120


def test_random_placement_decision_rate(benchmark):
    """Baseline: stock random placement at the same scale."""
    views = [
        NodeView(f"n{i}", AvailabilityEstimate(0.0, 0.0, 1)) for i in range(256)
    ]

    def run():
        plan = RandomPlacement().build_plan(views, 5120, 1, 12.0)
        rng = RandomSource(1)
        for _ in range(5120):
            plan.choose_replicas(rng)
        return sum(plan.allocations().values())

    total = benchmark(run)
    assert total == 5120
