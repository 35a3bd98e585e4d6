"""Tests for the flow-level network model."""

import pytest

from repro.simulator.engine import Simulator
from repro.simulator.network import Network, TransferState
from repro.simulator.topology import ClosTopology
from repro.util.units import MB, mbit_per_s


def setup_net(fair=True, up=1000.0, down=None):
    sim = Simulator()
    net = Network(sim, uplink_bps=up, downlink_bps=down, fair_sharing=fair)
    return sim, net


class Collector:
    def __init__(self):
        self.completed = []
        self.cancelled = []

    def on_complete(self, t):
        self.completed.append(t)

    def on_cancel(self, t):
        self.cancelled.append(t)


class TestSingleTransfer:
    @pytest.mark.parametrize("fair", [True, False])
    def test_duration_is_size_over_rate(self, fair):
        sim, net = setup_net(fair=fair, up=100.0)
        c = Collector()
        net.start_transfer("a", "b", 1000.0, c.on_complete)
        sim.run()
        assert len(c.completed) == 1
        assert c.completed[0].finished_at == pytest.approx(10.0)

    @pytest.mark.parametrize("fair", [True, False])
    def test_asymmetric_links(self, fair):
        # Uplink 100, downlink 50: the slower link binds.
        sim, net = setup_net(fair=fair, up=100.0, down=50.0)
        c = Collector()
        net.start_transfer("a", "b", 1000.0, c.on_complete)
        sim.run()
        assert c.completed[0].finished_at == pytest.approx(20.0)

    def test_paper_canonical_example(self):
        # 64MB at 8Mb/s ~ 67 seconds (Section I's "several minutes" at 1Mb/s).
        sim, net = setup_net(up=mbit_per_s(8.0))
        c = Collector()
        net.start_transfer("a", "b", 64 * MB, c.on_complete)
        sim.run()
        assert c.completed[0].finished_at == pytest.approx(67.1, abs=0.2)

    def test_rejects_self_transfer(self):
        _, net = setup_net()
        with pytest.raises(ValueError, match="differ"):
            net.start_transfer("a", "a", 10.0, lambda t: None)

    def test_rejects_negative_size(self):
        _, net = setup_net()
        with pytest.raises(ValueError):
            net.start_transfer("a", "b", -5.0, lambda t: None)


class TestFairSharing:
    def test_shared_uplink_halves_rate(self):
        # Two transfers from the same source share its uplink.
        sim, net = setup_net(up=100.0)
        c = Collector()
        net.start_transfer("src", "d1", 1000.0, c.on_complete)
        net.start_transfer("src", "d2", 1000.0, c.on_complete)
        sim.run()
        assert len(c.completed) == 2
        for t in c.completed:
            assert t.finished_at == pytest.approx(20.0)

    def test_disjoint_transfers_full_rate(self):
        sim, net = setup_net(up=100.0)
        c = Collector()
        net.start_transfer("a", "b", 1000.0, c.on_complete)
        net.start_transfer("c", "d", 1000.0, c.on_complete)
        sim.run()
        for t in c.completed:
            assert t.finished_at == pytest.approx(10.0)

    def test_rate_rises_after_competitor_finishes(self):
        # Transfer 2 starts halfway through and then shares; transfer 1
        # finishes and transfer 2 speeds back up.
        sim, net = setup_net(up=100.0)
        c = Collector()
        net.start_transfer("src", "d1", 1000.0, c.on_complete)
        sim.schedule(5.0, lambda: net.start_transfer("src", "d2", 1000.0, c.on_complete))
        sim.run()
        by_dst = {t.destination: t for t in c.completed}
        # t1: 5s at 100 + 10s at 50 = 1000 bytes -> ends at 15.
        assert by_dst["d1"].finished_at == pytest.approx(15.0)
        # t2: 10s at 50 (500) + 5s at 100 (500) -> ends at 20.
        assert by_dst["d2"].finished_at == pytest.approx(20.0)

    def test_max_min_with_mixed_bottlenecks(self):
        # src uplink 100 shared by two flows; one flow's destination
        # downlink only 30 -> it gets 30, the other picks up 70.
        sim = Simulator()
        net = Network(sim, uplink_bps=100.0, downlink_bps=1000.0)
        net.set_link("slow", downlink_bps=30.0)
        c = Collector()
        net.start_transfer("src", "slow", 300.0, c.on_complete)
        net.start_transfer("src", "fast", 700.0, c.on_complete)
        sim.run()
        by_dst = {t.destination: t for t in c.completed}
        assert by_dst["slow"].finished_at == pytest.approx(10.0)
        assert by_dst["fast"].finished_at == pytest.approx(10.0)

    def test_conservation_no_link_oversubscribed(self):
        # At any allocation, the sum of flow rates through a link must not
        # exceed its capacity.
        sim, net = setup_net(up=100.0)
        done = Collector()
        for i in range(5):
            net.start_transfer("hot", f"d{i}", 500.0, done.on_complete)
        total_rate = sum(t.rate for t in net.active_transfers)
        assert total_rate <= 100.0 + 1e-6
        sim.run()
        assert len(done.completed) == 5

    def test_outgoing_count(self):
        sim, net = setup_net(up=100.0)
        c = Collector()
        net.start_transfer("s", "d1", 1e6, c.on_complete)
        net.start_transfer("s", "d2", 1e6, c.on_complete)
        assert net.outgoing_count("s") == 2
        assert net.outgoing_count("d1") == 0
        sim.run()
        assert net.outgoing_count("s") == 0


class TestSimpleMode:
    def test_no_contention(self):
        # In simple mode, concurrent transfers do not slow each other.
        sim, net = setup_net(fair=False, up=100.0)
        c = Collector()
        net.start_transfer("src", "d1", 1000.0, c.on_complete)
        net.start_transfer("src", "d2", 1000.0, c.on_complete)
        sim.run()
        for t in c.completed:
            assert t.finished_at == pytest.approx(10.0)


class TestCancellation:
    @pytest.mark.parametrize("fair", [True, False])
    def test_cancel_stops_completion(self, fair):
        sim, net = setup_net(fair=fair, up=100.0)
        c = Collector()
        t = net.start_transfer("a", "b", 1000.0, c.on_complete, c.on_cancel)
        sim.schedule(4.0, lambda: net.cancel(t))
        sim.run()
        assert c.completed == []
        assert len(c.cancelled) == 1
        assert t.state is TransferState.CANCELLED
        # Partial progress recorded: 4s at 100 B/s.
        assert t.transferred == pytest.approx(400.0)

    def test_cancel_involving_node(self):
        sim, net = setup_net(up=100.0)
        c = Collector()
        net.start_transfer("x", "y", 1000.0, c.on_complete, c.on_cancel)
        net.start_transfer("z", "x", 1000.0, c.on_complete, c.on_cancel)
        net.start_transfer("z", "w", 1000.0, c.on_complete, c.on_cancel)
        doomed = net.cancel_involving("x")
        assert len(doomed) == 2
        sim.run()
        assert len(c.completed) == 1
        assert c.completed[0].destination == "w"

    def test_cancel_idempotent(self):
        sim, net = setup_net()
        c = Collector()
        t = net.start_transfer("a", "b", 100.0, c.on_complete, c.on_cancel)
        net.cancel(t)
        net.cancel(t)
        assert len(c.cancelled) == 1

    def test_cancel_after_completion_is_noop(self):
        sim, net = setup_net(up=100.0)
        c = Collector()
        t = net.start_transfer("a", "b", 100.0, c.on_complete, c.on_cancel)
        sim.run()
        net.cancel(t)
        assert c.cancelled == []
        assert t.state is TransferState.COMPLETED


def reference_allocate_rates(net):
    """Naive progressive filling: the oracle for ``Network._allocate_rates``.

    Every round re-scans every link's membership against the unfixed set
    — O(flows²·links) — and capacities are read straight from
    ``net.link_capacity``, with no live counters and no memo. Stalled
    (partition-crossing) flows join no link and take no rate. Returns
    each active transfer's rate.
    """
    capacity = {}
    members = {}
    for transfer in net._active:
        if net._partitions and net._is_stalled(transfer):
            continue
        for link in transfer.path:
            if link not in capacity:
                capacity[link] = net.link_capacity(link)
                members[link] = []
            members[link].append(transfer)
    unfixed = set(net._active)
    rates = {}
    while unfixed:
        bottleneck = None
        bottleneck_share = None
        for link, users in members.items():
            live = sum(1 for u in users if u in unfixed)
            if not live:
                continue
            share = max(capacity[link], 0.0) / live
            if bottleneck_share is None or share < bottleneck_share:
                bottleneck_share = share
                bottleneck = link
        if bottleneck is None:
            break
        for transfer in [t for t in members[bottleneck] if t in unfixed]:
            rates[transfer] = bottleneck_share
            unfixed.discard(transfer)
            for link in transfer.path:
                if link != bottleneck:
                    capacity[link] -= bottleneck_share
        capacity[bottleneck] = 0.0
    return {t: max(rates.get(t, 0.0), 0.0) for t in net._active}


def assert_rates_match_reference(net):
    """Live rates equal the oracle's bit for bit (``hex`` keeps -0.0 apart)."""
    expected = reference_allocate_rates(net)
    assert expected, "the scenario must have active transfers"
    assert [t.rate.hex() for t in net._active] == [expected[t].hex() for t in net._active]


def start_all(net, flows):
    # Sizes large enough that nothing completes while the clock stands still.
    return [net.start_transfer(src, dst, 1e15, lambda t: None) for src, dst in flows]


def clos_net(oversubscription=4.0):
    sim = Simulator()
    topology = ClosTopology(
        hosts=16, racks=4, pods=2, host_uplink_bps=1e6, oversubscription=oversubscription
    )
    return Network(sim, uplink_bps=1e6, topology=topology)


#: Clos flows (rack = id % 4, pod = rack % 2): same-rack, cross-rack
#: same-pod and cross-pod paths, sharing sources, destinations and trunks.
CLOS_FLOWS = [
    (0, 4), (1, 5), (2, 6), (0, 8),
    (0, 2), (4, 6), (1, 7), (3, 9), (5, 3),
    (0, 1), (4, 5), (0, 9), (8, 1), (12, 13), (2, 3), (6, 11), (10, 15), (14, 7),
]


class TestAllocatorMatchesReference:
    """The counter-and-memo allocator against the naive rescan."""

    def test_shares_all_differ(self):
        # 64 flows from one source whose shares all differ, so progressive
        # filling fixes one flow per round (the allocator's worst case).
        net = Network(Simulator(), uplink_bps=1e9)
        for i in range(64):
            net.set_link(f"d{i}", downlink_bps=1e5 * (i + 1))
        start_all(net, [("src", f"d{i}") for i in range(64)])
        assert_rates_match_reference(net)

    def test_flat_star_mixed_bottlenecks(self):
        net = Network(Simulator(), uplink_bps=3e5, downlink_bps=7e5)
        for i in range(12):
            net.set_link(f"h{i}", uplink_bps=1e5 * ((7 * i) % 13 + 1))
        flows = [(f"h{i % 5}", f"h{(5 * i + 3) % 12}") for i in range(30)]
        start_all(net, [(s, d) for s, d in flows if s != d])
        assert_rates_match_reference(net)

    @pytest.mark.parametrize("oversubscription", [1.0, 4.0])
    def test_clos(self, oversubscription):
        net = clos_net(oversubscription)
        start_all(net, CLOS_FLOWS)
        assert {len(t.path) for t in net._active} == {2, 4, 6}
        assert_rates_match_reference(net)

    def test_throttled_nodes(self):
        net = clos_net()
        net.throttle_node(0, 0.5)
        net.throttle_node(0, 0.3)  # stacked windows compose
        net.throttle_node(5, 0.25)
        start_all(net, CLOS_FLOWS)
        assert_rates_match_reference(net)

    def test_scaled_links(self):
        net = clos_net()
        net.scale_link(("tor-up", 0), 0.5)
        net.scale_link(("agg-down", 1), 0.75)
        net.scale_link(("down", 1), 0.1)
        start_all(net, CLOS_FLOWS)
        assert_rates_match_reference(net)

    def test_partitioned_flows_take_no_rate(self):
        net = clos_net()
        start_all(net, CLOS_FLOWS)
        net.begin_partition("cut", (0, 1, 2, 3))
        assert any(t.rate == 0.0 for t in net._active)
        assert_rates_match_reference(net)

    def test_capacity_changes_between_allocations(self):
        # The allocator memoizes link capacities; every capacity change
        # must invalidate the memo before the next allocation. Each step
        # below moves at least one rate, so a stale memo would show.
        net = clos_net()
        start_all(net, CLOS_FLOWS)
        assert_rates_match_reference(net)

        def override_then_allocate():
            # An override re-rates nothing by itself; the next allocation
            # must read it.
            net.set_link(1, downlink_bps=1e4)
            net._allocate_rates()

        steps = [
            lambda: net.throttle_node(0, 0.05),
            override_then_allocate,
            lambda: net.scale_link(("tor-up", 1), 0.1),
            lambda: net.restore_node(0),
            lambda: net.unscale_link(("tor-up", 1)),
        ]
        for step in steps:
            before = [t.rate for t in net._active]
            step()
            assert [t.rate for t in net._active] != before
            assert_rates_match_reference(net)
