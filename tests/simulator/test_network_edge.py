"""Edge cases for the network model beyond the basics."""

import pytest

from repro.simulator.engine import Simulator
from repro.simulator.events import NodeDegraded, NodeRestored, PartitionHealed, PartitionStarted
from repro.simulator.network import Network, TransferState


def degrade(net, node_id, link_factor):
    """Open a gray window on ``node_id``, as a ``NodeDegraded`` does."""
    net.handle_node_degraded(NodeDegraded(net._sim.now, node_id, link_factor=link_factor))


def restore(net, node_id):
    """Close ``node_id``'s oldest gray window, as a ``NodeRestored`` does."""
    net.handle_node_restored(NodeRestored(net._sim.now, node_id))


def partition(net, partition_id, members):
    """Stall flows crossing ``members``' boundary, as a ``PartitionStarted`` does."""
    net.handle_partition_started(PartitionStarted(net._sim.now, partition_id, members))


def heal(net, partition_id, members):
    """Heal a partition, as a ``PartitionHealed`` does."""
    net.handle_partition_healed(PartitionHealed(net._sim.now, partition_id, members))


class TestZeroAndTiny:
    def test_zero_size_completes_immediately(self):
        sim = Simulator()
        net = Network(sim, link_bps=100.0)
        done = []
        net.start_transfer("a", "b", 0.0, done.append)
        sim.run()
        assert len(done) == 1
        assert done[0].finished_at == 0.0

    def test_tiny_transfer(self):
        sim = Simulator()
        net = Network(sim, link_bps=1e9)
        done = []
        net.start_transfer("a", "b", 1.0, done.append)
        sim.run()
        assert done[0].duration == pytest.approx(1e-9)


class TestManyFlows:
    def test_fifty_flows_one_source_conserve_bytes(self):
        sim = Simulator()
        net = Network(sim, link_bps=1000.0, fair_sharing=True)
        done = []
        for i in range(50):
            net.start_transfer("hot", f"d{i}", 200.0, done.append)
        sim.run()
        assert len(done) == 50
        # 50 x 200 bytes through a 1000 B/s uplink needs exactly 10s.
        assert max(t.finished_at for t in done) == pytest.approx(10.0)

    def test_chain_of_dependent_transfers(self):
        # Each completion triggers the next; total time is the serial sum.
        sim = Simulator()
        net = Network(sim, link_bps=100.0)
        finished = []

        def start(i):
            if i >= 5:
                return
            net.start_transfer(
                "a", "b", 100.0, lambda t: (finished.append(t), start(i + 1))
            )

        start(0)
        sim.run()
        assert len(finished) == 5
        assert finished[-1].finished_at == pytest.approx(5.0)


class TestDynamicCapacity:
    def test_per_node_overrides(self):
        # One node's link departs from the host rate through a scale on
        # that link alone; every other link keeps the nominal rate.
        sim = Simulator()
        net = Network(sim, link_bps=100.0)
        net.scale_link(("up", "fast"), 10.0)
        assert net.link_capacity(("up", "fast")) == 1000.0
        assert net.link_capacity(("down", "fast")) == 100.0
        assert net.link_capacity(("up", "other")) == 100.0
        with pytest.raises(ValueError):
            net.scale_link(("up", "bad"), 0.0)

    def test_rates_zero_after_terminal(self):
        sim = Simulator()
        net = Network(sim, link_bps=100.0)
        done = []
        t = net.start_transfer("a", "b", 100.0, done.append)
        sim.run()
        assert t.rate == 0.0
        assert t.state is TransferState.COMPLETED

    def test_duration_unavailable_while_active(self):
        sim = Simulator()
        net = Network(sim, link_bps=100.0)
        t = net.start_transfer("a", "b", 1e9, lambda _t: None)
        with pytest.raises(ValueError):
            _ = t.duration


class TestCancellationStorm:
    def test_cancel_all_then_reuse(self):
        sim = Simulator()
        net = Network(sim, link_bps=100.0, fair_sharing=True)
        cancelled = []
        for i in range(10):
            net.start_transfer("s", f"d{i}", 1000.0, lambda t: None, cancelled.append)
        for t in net.active_transfers:
            net.cancel(t)
        assert len(cancelled) == 10
        assert net.active_transfers == []
        # The network stays usable afterwards.
        done = []
        net.start_transfer("s", "fresh", 100.0, done.append)
        sim.run()
        assert len(done) == 1


class TestOutgoingBookkeeping:
    def test_counts_prune_to_zero_after_traffic(self):
        sim = Simulator()
        net = Network(sim, link_bps=100.0)
        for i in range(3):
            net.start_transfer("s", f"d{i}", 100.0, lambda t: None)
        assert net.outgoing_count("s") == 3
        sim.run()
        assert net.outgoing_count("s") == 0
        # The internal map is pruned, not just zeroed.
        assert net._outgoing == {}

    def test_cancel_involving_both_roles(self):
        sim = Simulator()
        net = Network(sim, link_bps=100.0)
        keep = net.start_transfer("a", "b", 1000.0, lambda t: None)
        as_source = net.start_transfer("x", "b", 1000.0, lambda t: None)
        as_dest = net.start_transfer("a", "x", 1000.0, lambda t: None)
        doomed = net.cancel_involving("x")
        assert set(doomed) == {as_source, as_dest}
        assert as_source.state is TransferState.CANCELLED
        assert as_dest.state is TransferState.CANCELLED
        assert net.active_transfers == [keep]
        assert net.outgoing_count("x") == 0

    def test_cancel_involving_uninvolved_node_is_noop(self):
        sim = Simulator()
        net = Network(sim, link_bps=100.0)
        t = net.start_transfer("a", "b", 1000.0, lambda t: None)
        assert net.cancel_involving("z") == []
        assert t.state is TransferState.ACTIVE


class TestZeroByteFairMode:
    def test_zero_size_amid_active_flows(self):
        # A zero-byte transfer must complete instantly without disturbing
        # the rates or the completion of concurrent nonzero flows.
        sim = Simulator()
        net = Network(sim, link_bps=100.0, fair_sharing=True)
        done = []
        net.start_transfer("a", "b", 1000.0, done.append)
        zero = net.start_transfer("a", "c", 0.0, done.append)
        assert zero.state is TransferState.COMPLETED
        assert zero.duration == 0.0
        sim.run()
        assert len(done) == 2
        assert done[-1].finished_at == pytest.approx(10.0)
        assert net.outgoing_count("a") == 0

    def test_zero_size_cancel_after_completion_is_noop(self):
        sim = Simulator()
        net = Network(sim, link_bps=100.0, fair_sharing=True)
        cancelled = []
        zero = net.start_transfer("a", "b", 0.0, lambda t: None, cancelled.append)
        net.cancel(zero)
        assert cancelled == []
        assert zero.state is TransferState.COMPLETED


class TestReentrantCompletion:
    def test_completion_callback_starting_transfer_does_not_double_fire(self):
        # Regression: two flows drain in the same sweep; the first one's
        # on_complete starts a new transfer, which re-enters the allocator
        # and finalizes the second flow *inside* the inner call. The outer
        # loop must not finalize it again (double callbacks would corrupt
        # the outgoing counts).
        sim = Simulator()
        net = Network(sim, link_bps=100.0, fair_sharing=True)
        completions = []

        def first_done(t):
            completions.append(t)
            net.start_transfer("c", "d", 50.0, completions.append)

        net.start_transfer("a", "b", 1000.0, first_done)
        net.start_transfer("b", "a", 1000.0, completions.append)
        sim.run()
        assert len(completions) == 3
        assert len(set(completions)) == 3, "a transfer completed twice"
        for node in ("a", "b", "c", "d"):
            assert net.outgoing_count(node) == 0

    def test_completion_callback_cancelling_sibling(self):
        # The first finisher cancels the second mid-finalization sweep: the
        # second must end CANCELLED, not COMPLETED, and fire only on_cancel.
        sim = Simulator()
        net = Network(sim, link_bps=100.0, fair_sharing=True)
        events = []
        second = None

        def first_done(t):
            events.append(("complete", t))
            net.cancel(second)

        net.start_transfer("a", "b", 1000.0, first_done)
        second = net.start_transfer(
            "b", "a", 1000.0,
            lambda t: events.append(("complete", t)),
            lambda t: events.append(("cancel", t)),
        )
        sim.run()
        kinds = sorted(k for k, _t in events)
        assert kinds == ["cancel", "complete"]
        assert second.state is TransferState.CANCELLED
        assert net.outgoing_count("a") == 0
        assert net.outgoing_count("b") == 0


class TestGrayThrottleRegressions:
    """Regressions from the gray-node throttle bugfix sweep (issue 9)."""

    def test_overlapping_throttles_stack(self):
        # Two gray windows overlap on one node: the second throttle must
        # compose, and the first window's restore must not lift the
        # second (the pre-fix code ignored the second throttle entirely).
        sim = Simulator()
        net = Network(sim, link_bps=1000.0, fair_sharing=False)
        up, down = ("up", "a"), ("down", "a")
        degrade(net, "a", 0.5)
        assert net.link_capacity(up) == 500.0
        assert net.link_capacity(down) == 500.0
        degrade(net, "a", 0.5)  # second overlapping window
        assert net.link_capacity(up) == 250.0
        restore(net, "a")  # first window ends; second still active
        assert net.link_capacity(up) == 500.0
        assert net.link_capacity(down) == 500.0
        restore(net, "a")
        assert net.link_capacity(up) == 1000.0
        restore(net, "a")  # spurious restore stays a no-op
        assert net.link_capacity(up) == 1000.0

    def test_overlapping_throttles_drive_transfer_rates(self):
        # The stacked product must reach in-flight rates, and each restore
        # must re-rate at the remaining stack, not at the base capacity.
        sim = Simulator()
        net = Network(sim, link_bps=100.0, fair_sharing=True)
        done = []
        transfer = net.start_transfer("a", "b", 1000.0, done.append)
        degrade(net, "a", 0.5)
        degrade(net, "a", 0.5)
        assert transfer.rate == 25.0
        restore(net, "a")
        assert transfer.rate == 50.0
        restore(net, "a")
        sim.run()
        assert done and transfer.state is TransferState.COMPLETED

    def test_scale_during_throttle_survives_restore(self):
        # A capacity change made inside a gray window must compose with
        # the throttle while it lasts and survive the restore (the pre-fix
        # restore rewrote the pre-throttle capacities, silently discarding
        # the change).
        sim = Simulator()
        net = Network(sim, link_bps=1000.0, fair_sharing=False)
        degrade(net, "a", 0.5)
        net.scale_link(("up", "a"), 2.0)
        net.scale_link(("down", "a"), 4.0)
        assert net.link_capacity(("up", "a")) == 1000.0  # 1000 * (0.5 * 2)
        assert net.link_capacity(("down", "a")) == 2000.0
        restore(net, "a")
        assert net.link_capacity(("up", "a")) == 2000.0
        assert net.link_capacity(("down", "a")) == 4000.0


class TestHandlerInputChecks:
    def test_partition_ids_are_checked(self):
        net = Network(Simulator(), link_bps=100.0)
        partition(net, "p", ("a",))
        with pytest.raises(ValueError, match="already active"):
            partition(net, "p", ("b",))
        heal(net, "p", ("a",))
        with pytest.raises(ValueError, match="is not active"):
            heal(net, "p", ("a",))

    def test_link_factor_must_be_positive(self):
        net = Network(Simulator(), link_bps=100.0)
        with pytest.raises(ValueError, match="link_factor"):
            degrade(net, "a", 0.0)
        assert net.link_capacity(("up", "a")) == 100.0


class TestOneScaleStack:
    """Gray windows and mitigation scales push onto each link's one stack."""

    @pytest.mark.parametrize("fair", [True, False])
    @pytest.mark.parametrize("window_closes_first", [True, False])
    def test_window_and_mitigation_scale_compose(self, fair, window_closes_first):
        sim = Simulator()
        net = Network(sim, link_bps=1000.0, fair_sharing=fair)
        up, down = ("up", "a"), ("down", "a")
        transfer = net.start_transfer("a", "b", 1e6, lambda t: None)
        degrade(net, "a", 0.5)
        net.scale_link(up, 0.25)
        assert net.link_capacity(up) == 1000.0 * (0.5 * 0.25)
        assert net.link_capacity(down) == 500.0
        assert transfer.rate == 125.0
        if window_closes_first:
            restore(net, "a")
            left = 0.25
        else:
            net.unscale_link(up, 0.25)
            left = 0.5
        # Releasing either leaves exactly the other's factor.
        assert net.link_capacity(up) == 1000.0 * left
        assert transfer.rate == 1000.0 * left
        if window_closes_first:
            net.unscale_link(up, 0.25)
        else:
            restore(net, "a")
        assert net.link_capacity(up) == net.link_capacity(down) == 1000.0
        assert transfer.rate == 1000.0
        assert net._scales == {}

    @pytest.mark.parametrize("window_open_at_heal", [True, False])
    def test_partition_heal_thaws_at_the_current_scale(self, window_open_at_heal):
        # Fixed-cost model: a flow a partition stalls inside a gray window
        # restarts at the capacity of the heal, not of the stall.
        sim = Simulator()
        net = Network(sim, link_bps=100.0, fair_sharing=False)
        transfer = net.start_transfer("a", "b", 1e6, lambda t: None)
        sim.schedule(1.0, lambda: degrade(net, "a", 0.5))
        sim.schedule(2.0, lambda: partition(net, "p", ("a",)))
        if not window_open_at_heal:
            sim.schedule(3.0, lambda: restore(net, "a"))
        sim.schedule(4.0, lambda: heal(net, "p", ("a",)))
        sim.run(until=2.5)
        assert transfer.rate == 0.0
        sim.run(until=4.0)
        assert transfer.rate == (50.0 if window_open_at_heal else 100.0)
        # Progress banked: 1 s at 100 and 1 s at 50 before the stall.
        assert transfer.remaining == 1e6 - 150.0


class TestSimpleModeEpsilon:
    """Simple-mode completion must honor _DONE_EPSILON like the fair path."""

    def test_sub_epsilon_residue_completes_at_thaw_time(self):
        # A transfer whose banked residue is within the done-epsilon must
        # complete the instant it thaws, not schedule a timed completion
        # for the residue (the fair path already treated it as finished).
        sim = Simulator()
        net = Network(sim, link_bps=1.0, fair_sharing=False)
        done = []
        transfer = net.start_transfer("a", "b", 100.4, done.append)
        sim.schedule(100.0, lambda: partition(net, "p", ("a",)))
        sim.schedule(110.0, lambda: heal(net, "p", ("a",)))
        sim.run()
        assert transfer.state is TransferState.COMPLETED
        assert transfer.remaining == 0.0
        assert transfer.finished_at == 110.0

    def test_many_partition_cycles_bank_progress_exactly_once(self):
        # Hundreds of freeze/thaw cycles bank progress through repeated
        # float subtraction; whatever error accumulates, a sub-epsilon
        # remainder must finish at the final heal, and the completion
        # callback must fire exactly once.
        sim = Simulator()
        net = Network(sim, link_bps=3.0, fair_sharing=False)
        done = []
        # 1000 up-windows of 0.1s at 3 B/s drain ~300 bytes; the extra
        # 0.2 bytes (plus accumulated float error) sit under the epsilon.
        transfer = net.start_transfer("a", "b", 300.2, done.append)
        for cycle in range(1000):
            sim.schedule(0.1 + cycle * 0.2, lambda: partition(net, "p", ("a",)))
            sim.schedule(0.2 + cycle * 0.2, lambda: heal(net, "p", ("a",)))
        sim.run()
        assert len(done) == 1
        assert transfer.state is TransferState.COMPLETED
        assert transfer.remaining == 0.0
        # Completed at (or before, if error banked fast) the final heal —
        # never a timed completion stretching past it.
        assert transfer.finished_at is not None
        assert transfer.finished_at <= 0.2 + 999 * 0.2
