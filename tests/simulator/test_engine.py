"""Tests for the discrete-event engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.availability.generator import HostAvailability
from repro.availability.traces import AvailabilityTrace
from repro.core.placement import RandomPlacement
from repro.mapreduce.job import JobConf, MapJob
from repro.runtime.cluster import ClusterConfig, build_cluster
from repro.simulator.engine import Simulator


class TestScheduling:
    def test_runs_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(3.0, lambda: order.append("c"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(2.0, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_break_by_schedule_order(self):
        sim = Simulator()
        order = []
        for name in "abcde":
            sim.schedule(5.0, lambda n=name: order.append(n))
        sim.run()
        assert order == list("abcde")

    def test_clock_advances(self):
        sim = Simulator()
        times = []
        sim.schedule(2.5, lambda: times.append(sim.now))
        sim.schedule(7.0, lambda: times.append(sim.now))
        sim.run()
        assert times == [2.5, 7.0]
        assert sim.now == 7.0

    def test_events_can_schedule_events(self):
        sim = Simulator()
        hits = []

        def chain(n):
            hits.append(sim.now)
            if n > 0:
                sim.schedule(1.0, lambda: chain(n - 1))

        sim.schedule(0.0, lambda: chain(3))
        sim.run()
        assert hits == [0.0, 1.0, 2.0, 3.0]

    def test_schedule_at(self):
        sim = Simulator(start_time=10.0)
        fired = []
        sim.schedule_at(15.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [15.0]

    def test_rejects_past(self):
        sim = Simulator(start_time=5.0)
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)
        with pytest.raises(ValueError):
            sim.schedule_at(4.9, lambda: None)

    def test_rejects_infinite_time(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule_at(float("inf"), lambda: None)


class TestCancellation:
    def test_cancelled_event_skipped(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append("x"))
        handle.cancel()
        sim.run()
        assert fired == []
        assert handle.cancelled

    def test_cancel_after_fire_is_noop(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.run()
        handle.cancel()  # must not raise

    def test_cancel_inside_event(self):
        sim = Simulator()
        fired = []
        later = sim.schedule(2.0, lambda: fired.append("later"))
        sim.schedule(1.0, later.cancel)
        sim.run()
        assert fired == []


class TestRunControl:
    def test_until_bound(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(5.0, lambda: fired.append(5))
        executed = sim.run(until=3.0)
        assert executed == 1
        assert fired == [1]
        # The clock stays at the last executed event.
        assert sim.now == 1.0
        sim.run()
        assert fired == [1, 5]

    def test_until_inclusive(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, lambda: fired.append(3))
        sim.run(until=3.0)
        assert fired == [3]

    def test_max_events(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(float(i), lambda i=i: fired.append(i))
        sim.run(max_events=4)
        assert fired == [0, 1, 2, 3]

    def test_step_returns_false_when_empty(self):
        sim = Simulator()
        assert sim.step() is False

    def test_reentrant_run_rejected(self):
        sim = Simulator()

        def nested():
            sim.run()

        sim.schedule(1.0, nested)
        with pytest.raises(RuntimeError, match="re-entrant"):
            sim.run()

    def test_event_counter(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.events_fired == 5


class TestReservedSequence:
    def test_reserved_event_keeps_its_place_among_ties(self):
        # The reservation is taken before "b" is scheduled, so the event
        # queued afterwards under it still fires first at the shared time.
        sim = Simulator()
        order = []
        sim.schedule(5.0, lambda: order.append("a"))
        seq = sim.reserve()
        sim.schedule(5.0, lambda: order.append("b"))
        sim.schedule_reserved(5.0, seq, lambda: order.append("reserved"))
        sim.run()
        assert order == ["a", "reserved", "b"]

    def test_reserved_event_queued_from_inside_a_run(self):
        sim = Simulator()
        order = []
        seq = sim.reserve()
        sim.schedule(4.0, lambda: order.append("tie"))
        sim.schedule(
            1.0, lambda: sim.schedule_reserved(4.0, seq, lambda: order.append("reserved"))
        )
        sim.run()
        assert order == ["reserved", "tie"]

    def test_unused_reservation_only_leaves_a_gap(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, lambda: order.append("a"))
        sim.reserve()
        sim.schedule(1.0, lambda: order.append("b"))
        assert sim.run() == 2
        assert order == ["a", "b"]
        assert sim.pending_events == 0

    def test_reserved_handle_cancels(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule_reserved(2.0, sim.reserve(), lambda: fired.append(1))
        handle.cancel()
        assert sim.cancelled_pending == 1
        assert sim.run() == 0
        assert fired == []

    def test_rejects_past_time(self):
        sim = Simulator(start_time=5.0)
        with pytest.raises(ValueError, match="before now"):
            sim.schedule_reserved(4.9, sim.reserve(), lambda: None)

    @pytest.mark.parametrize("when", [float("inf"), float("nan")])
    def test_rejects_non_finite_time(self, when):
        sim = Simulator()
        with pytest.raises(ValueError, match="finite"):
            sim.schedule_reserved(when, sim.reserve(), lambda: None)


class Resolver:
    """A lazy event's resolver: hands out ``bounds``, then ``(time, action)``.

    ``calls`` counts resolutions; ``now_seen`` is the clock at each one.
    """

    def __init__(self, sim, time, action, bounds=()):
        self.sim = sim
        self.steps = [(bound, None) for bound in bounds] + [(time, action)]
        self.calls = 0
        self.now_seen = []

    def __call__(self):
        self.now_seen.append(self.sim.now)
        self.calls += 1
        return self.steps[self.calls - 1]


class TestLazyEvents:
    def test_resolved_event_keeps_its_place_among_ties(self):
        # Queued between "a" and "b", bounded well before their shared
        # time: it fires after the tie queued before it and before the
        # one queued after it, as a schedule_at would.
        sim = Simulator()
        order = []
        sim.schedule_at(5.0, lambda: order.append("a"))
        sim.schedule_lazy(1.0, Resolver(sim, 5.0, lambda: order.append("lazy")))
        sim.schedule_at(5.0, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "lazy", "b"]

    def test_resolution_is_not_an_event(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(1.0, lambda: fired.append(sim.now))
        resolver = Resolver(sim, 9.0, lambda: fired.append(sim.now), bounds=[4.0])
        sim.schedule_lazy(2.0, resolver)
        sim.schedule_at(3.0, lambda: fired.append(sim.now))
        assert sim.run(until=8.0) == 2
        assert sim.events_fired == 2
        assert resolver.calls == 2
        assert resolver.now_seen == [1.0, 3.0]
        assert sim.now == 3.0
        assert sim.run() == 1
        assert fired == [1.0, 3.0, 9.0]
        assert sim.events_fired == 3

    def test_chain_of_later_bounds(self):
        sim = Simulator()
        fired = []
        resolver = Resolver(sim, 100.0, lambda: fired.append(sim.now), bounds=[2.0, 8.0, 50.0])
        handle = sim.schedule_lazy(1.0, resolver, label="up:x")
        sim.schedule_at(60.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [60.0, 100.0]
        assert resolver.calls == 4
        assert handle.time == 100.0
        assert handle.label == "up:x"

    def test_cancelled_before_resolution_never_resolves(self):
        sim = Simulator()
        fired = []
        resolver = Resolver(sim, 5.0, lambda: fired.append("lazy"))
        handle = sim.schedule_lazy(2.0, resolver)
        sim.schedule_at(1.0, handle.cancel)
        assert sim.run() == 1
        assert resolver.calls == 0
        assert fired == []
        assert sim.pending_events == 0

    def test_until_between_bound_and_time_stops_without_firing(self):
        sim = Simulator()
        fired = []
        resolver = Resolver(sim, 7.0, lambda: fired.append(sim.now))
        sim.schedule_lazy(3.0, resolver)
        assert sim.run(until=5.0) == 0
        assert resolver.calls == 1
        assert fired == []
        assert sim.now == 0.0
        assert sim.run(until=7.0) == 1
        assert fired == [7.0]
        assert resolver.calls == 1

    def test_peek_and_step_resolve(self):
        sim = Simulator()
        fired = []
        sim.schedule_lazy(2.0, Resolver(sim, 6.0, lambda: fired.append(sim.now), bounds=[3.0]))
        sim.schedule_at(4.0, lambda: fired.append(sim.now))
        assert sim.peek_next_time() == 4.0
        assert sim.step()
        assert sim.peek_next_time() == 6.0
        assert sim.step()
        assert fired == [4.0, 6.0]
        assert not sim.step()

        sim = Simulator()
        sim.schedule_lazy(2.0, Resolver(sim, 6.0, lambda: fired.append(sim.now), bounds=[3.0]))
        assert sim.step()
        assert fired[-1] == 6.0
        assert sim.events_fired == 1

    @pytest.mark.parametrize(
        "time, action",
        [
            (1.5, lambda: None),  # exact time before the bound
            (float("inf"), lambda: None),
            (float("nan"), lambda: None),
            (2.0, None),  # a later bound that does not grow
            (float("inf"), None),
        ],
    )
    def test_bad_resolution_raises(self, time, action):
        sim = Simulator()
        sim.schedule_lazy(2.0, lambda: (time, action), label="up:x")
        with pytest.raises(ValueError, match="up:x"):
            sim.run()

    def test_exact_time_at_the_bound_fires(self):
        sim = Simulator()
        fired = []
        sim.schedule_lazy(2.0, Resolver(sim, 2.0, lambda: fired.append(sim.now)))
        assert sim.run() == 1
        assert fired == [2.0]

    @pytest.mark.parametrize("bound", [-1.0, float("inf"), float("nan")])
    def test_rejects_bad_bound(self, bound):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule_lazy(bound, lambda: (1.0, lambda: None))


class TestHalt:
    def test_halt_ends_the_run_before_the_next_event(self):
        sim = Simulator()
        fired = []

        def record(i):
            fired.append(i)
            if len(fired) == 3:
                sim.halt()

        for i in range(10):
            sim.schedule(float(i), lambda i=i: record(i))
        executed = sim.run()
        assert executed == 3
        assert fired == [0, 1, 2]
        assert sim.now == 2.0
        assert sim.pending_events == 7

    def test_halt_outside_a_run_is_forgotten(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.halt()
        assert sim.run() == 1
        assert sim.now == 1.0

    def test_halt_is_checked_before_each_event_not_each_entry(self):
        # Cancelled heads are skipped without counting as events, and a
        # halted run pops nothing after the halting event.
        sim = Simulator()
        fired = []

        def record(i):
            fired.append(i)
            if len(fired) == 2:
                sim.halt()

        for i in range(6):
            handle = sim.schedule(float(i), lambda i=i: record(i))
            if i % 2:
                handle.cancel()
        executed = sim.run()
        assert executed == 2
        assert fired == [0, 2]
        assert sim.pending_events == 3
        assert sim.cancelled_pending == 2
        assert sim.run() == 1
        assert fired == [0, 2, 4]

    def test_halt_comes_before_a_lazy_resolution(self):
        sim = Simulator()
        resolved = []
        sim.schedule(1.0, sim.halt)
        sim.schedule_lazy(1.0, lambda: resolved.append(1) or (2.0, lambda: None))
        assert sim.run() == 1
        assert resolved == []
        assert sim.run() == 1
        assert resolved == [1]

    def test_budget_and_until_still_apply(self):
        sim = Simulator()
        for i in range(10):
            sim.schedule(float(i), sim.halt if i == 1 else (lambda: None))
        assert sim.run(max_events=4) == 2
        assert sim.run(max_events=4) == 4
        assert sim.run(until=7.0) == 2
        assert sim.run() == 2


def failure_free_cluster(submit):
    """Three never-failing hosts under oracle detection: once the job is
    done nothing re-arms, so the heap drains."""
    hosts = [HostAvailability(host_id=f"n{i}") for i in range(3)]
    traces = [AvailabilityTrace(f"n{i}", 1000.0, ()) for i in range(3)]
    config = ClusterConfig(bandwidth_mbps=8.0, detection="oracle", seed=1)
    cluster = build_cluster(hosts, config, traces=traces, default_gamma=10.0)
    if submit:
        dfs_file = cluster.client.copy_from_local(
            "in", num_blocks=6, replication=1, policy=RandomPlacement(), gamma=10.0
        )
        cluster.jobtracker.submit(MapJob.uniform(JobConf(), dfs_file, 10.0))
    return cluster


class TestRunUntilJobDone:
    """The cluster's run loop is one ``run()`` call that the JobTracker
    halts when the job finishes; both of its errors keep the boundaries
    of a step-per-event loop."""

    def test_drained_heap_raises(self):
        cluster = failure_free_cluster(submit=False)
        with pytest.raises(RuntimeError, match="event heap drained"):
            cluster.run_until_job_done()

    def test_done_job_runs_no_event(self):
        cluster = failure_free_cluster(submit=True)
        cluster.run_until_job_done()
        before = cluster.sim.events_fired
        cluster.sim.schedule(1.0, lambda: None)
        cluster.run_until_job_done()
        assert cluster.sim.events_fired == before

    def test_halts_right_after_the_finishing_event(self):
        cluster = failure_free_cluster(submit=True)
        late = []
        cluster.sim.schedule_at(1000.0, lambda: late.append(cluster.sim.now))
        cluster.run_until_job_done()
        assert cluster.sim.now == cluster.jobtracker.job.finished_at
        assert late == []
        assert not cluster.jobtracker.halt_on_finish

    def test_job_finishing_in_a_plain_run_does_not_halt_it(self):
        cluster = failure_free_cluster(submit=True)
        late = []
        cluster.sim.schedule_at(1000.0, lambda: late.append(cluster.sim.now))
        cluster.sim.run(until=2000.0)
        assert cluster.jobtracker.is_done
        assert late == [1000.0]

    def test_event_budget_boundary(self):
        cluster = failure_free_cluster(submit=True)
        before = cluster.sim.events_fired
        cluster.run_until_job_done()
        needed = cluster.sim.events_fired - before
        assert needed > 2

        # A budget of exactly the events the job needs is enough.
        cluster = failure_free_cluster(submit=True)
        cluster.run_until_job_done(max_events=needed)
        assert cluster.jobtracker.is_done

        # One fewer: the last event still runs (the loop raises once it
        # has executed *more* than the budget), finishing the job, and the
        # livelock error fires anyway.
        cluster = failure_free_cluster(submit=True)
        before = cluster.sim.events_fired
        with pytest.raises(RuntimeError, match=f"within {needed - 1} events"):
            cluster.run_until_job_done(max_events=needed - 1)
        assert cluster.sim.events_fired - before == needed

        cluster = failure_free_cluster(submit=True)
        before = cluster.sim.events_fired
        with pytest.raises(RuntimeError, match="livelock"):
            cluster.run_until_job_done(max_events=2)
        assert cluster.sim.events_fired - before == 3
        assert not cluster.jobtracker.is_done


class TestHeapHygiene:
    """Lazy cancellation must not let dead entries accumulate unboundedly."""

    def test_cancelled_pending_tracks_cancellations(self):
        sim = Simulator()
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
        assert sim.cancelled_pending == 0
        for handle in handles[:4]:
            handle.cancel()
        assert sim.cancelled_pending == 4
        assert sim.pending_events == 10  # lazily cancelled, still in heap

    def test_pop_of_cancelled_entry_decrements_counter(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, lambda: fired.append("live"))
        dead = sim.schedule(1.0, lambda: fired.append("dead"))
        dead.cancel()
        assert sim.cancelled_pending == 1
        sim.run()
        assert sim.cancelled_pending == 0
        assert sim.pending_events == 0
        assert fired == ["live"]

    def test_heap_stays_bounded_under_rearm_churn(self):
        # The watchdog/sweep pattern: re-arm by cancelling the previous
        # event and scheduling a replacement. Without compaction the heap
        # holds every corpse until its time arrives.
        sim = Simulator()
        current = sim.schedule(1e9, lambda: None)
        for _ in range(10_000):
            current.cancel()
            current = sim.schedule(1e9, lambda: None)
        # One live event plus bounded garbage: compaction keeps the heap
        # under the size floor plus one round of churn, never 10k corpses.
        assert sim.pending_events < 200
        assert sim.cancelled_pending < 64

    def test_small_heaps_never_compact(self):
        # Below the size floor, compaction is pointless; cancelled entries
        # just wait for their pop.
        sim = Simulator()
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
        for handle in handles:
            handle.cancel()
        assert sim.pending_events == 10
        assert sim.cancelled_pending == 10
        sim.run()
        assert sim.pending_events == 0

    def test_compaction_preserves_execution_order(self):
        sim = Simulator()
        order = []
        keep = []
        for i in range(200):
            handle = sim.schedule(float(i + 1), lambda i=i: order.append(i))
            if i % 2:
                keep.append(i)
            else:
                handle.cancel()  # triggers compaction partway through
        sim.run()
        assert order == keep


class TestDeterminism:
    @given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=30))
    @settings(max_examples=50)
    def test_replay_identical(self, delays):
        def run():
            sim = Simulator()
            log = []
            for i, delay in enumerate(delays):
                sim.schedule(delay, lambda i=i: log.append((sim.now, i)))
            sim.run()
            return log

        assert run() == run()

    @given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=30))
    @settings(max_examples=50)
    def test_time_never_regresses(self, delays):
        sim = Simulator()
        times = []
        for delay in delays:
            sim.schedule(delay, lambda: times.append(sim.now))
        sim.run()
        assert times == sorted(times)
