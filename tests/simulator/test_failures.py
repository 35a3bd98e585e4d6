"""Tests for failure injection."""

import pytest

from repro.availability import process
from repro.availability.distributions import Deterministic, Exponential
from repro.availability.generator import HostAvailability, build_group_hosts
from repro.availability.pregen import episode_prefix, materialise_prefix
from repro.availability.process import DowntimeEpisode
from repro.availability.traces import AvailabilityTrace
from repro.experiments.config import SimulationConfig
from repro.simulator.engine import Simulator
from repro.simulator.events import NodeDown, NodeUp, PermanentFailure, Phase
from repro.simulator.failures import FailureInjector
from repro.util.rng import RandomSource


def make_injector(seed=1):
    sim = Simulator()
    return sim, FailureInjector(sim, RandomSource(seed))


def interrupted_host(host_id="h0", mtbi=10.0, mu=2.0):
    return HostAvailability(
        host_id=host_id,
        arrival=Exponential(mean=mtbi),
        service=Exponential(mean=mu),
        group="test",
    )


class Recorder:
    """Every NodeDown/NodeUp the injector publishes, as (kind, node, time)."""

    def __init__(self, injector):
        self.events = []
        for event_type, kind in ((NodeDown, "down"), (NodeUp, "up")):
            injector.bus.subscribe(
                event_type,
                lambda e, kind=kind: self.events.append((kind, e.node_id, e.time)),
                Phase.ACCOUNTING,
            )


def record_permanent(injector):
    """The (node, time) of every PermanentFailure the injector publishes."""
    perms = []
    injector.bus.subscribe(
        PermanentFailure, lambda e: perms.append((e.node_id, e.time)), Phase.ACCOUNTING
    )
    return perms


class TestAttachment:
    def test_dedicated_never_fails(self):
        sim, injector = make_injector()
        rec = Recorder(injector)
        injector.attach_host(HostAvailability(host_id="d"))
        sim.run(until=10000.0)
        assert rec.events == []
        assert not injector.is_down("d")

    def test_interrupted_host_cycles(self):
        sim, injector = make_injector()
        rec = Recorder(injector)
        injector.attach_host(interrupted_host())
        sim.run(until=500.0)
        downs = [e for e in rec.events if e[0] == "down"]
        ups = [e for e in rec.events if e[0] == "up"]
        assert len(downs) > 10
        assert abs(len(downs) - len(ups)) <= 1

    def test_down_up_alternate(self):
        sim, injector = make_injector()
        rec = Recorder(injector)
        injector.attach_host(interrupted_host())
        sim.run(until=300.0)
        kinds = [e[0] for e in rec.events]
        for a, b in zip(kinds, kinds[1:], strict=False):
            assert a != b, "down/up must alternate"

    def test_double_attach_rejected(self):
        _, injector = make_injector()
        injector.attach_host(interrupted_host())
        with pytest.raises(ValueError, match="already attached"):
            injector.attach_host(interrupted_host())

    def test_accounting(self):
        sim, injector = make_injector()
        injector.attach_host(interrupted_host())
        sim.run(until=1000.0)
        assert injector.episode_count("h0") > 0
        assert injector.downtime_total("h0") > 0.0


class TestTraceReplay:
    def test_exact_windows(self):
        sim, injector = make_injector()
        rec = Recorder(injector)
        trace = AvailabilityTrace("t0", 100.0, [(10.0, 15.0), (40.0, 42.0)])
        injector.attach_trace(trace)
        sim.run(until=100.0)
        assert rec.events == [
            ("down", "t0", 10.0),
            ("up", "t0", 15.0),
            ("down", "t0", 40.0),
            ("up", "t0", 42.0),
        ]

    def test_state_queries_during_replay(self):
        sim, injector = make_injector()
        trace = AvailabilityTrace("t0", 100.0, [(10.0, 20.0)])
        injector.attach_trace(trace)
        sim.run(until=12.0)
        assert injector.is_down("t0")
        sim.run(until=25.0)
        assert not injector.is_down("t0")


class TestBurnIn:
    def test_zero_burn_in_starts_up(self):
        sim, injector = make_injector()
        injector.attach_host(interrupted_host())
        assert not injector.is_down("h0")

    def test_burn_in_can_start_down(self):
        # A host down 90% of the time and a long burn-in: at t=0 it must
        # (for some seed) already be down, with the episode clipped to 0.
        found_down = False
        for seed in range(30):
            sim = Simulator()
            injector = FailureInjector(sim, RandomSource(seed))
            host = HostAvailability(
                host_id="h0",
                arrival=Exponential(mean=10.0),
                service=Deterministic(value=50.0),
                group="test",
            )
            injector.attach_host(host, burn_in=10_000.0)
            sim.run(until=0.0)
            if injector.is_down("h0"):
                found_down = True
                break
        assert found_down

    def test_burn_in_preserves_event_validity(self):
        sim, injector = make_injector(seed=9)
        rec = Recorder(injector)
        injector.attach_host(interrupted_host(), burn_in=500.0)
        sim.run(until=200.0)
        # Events stay ordered and alternating after the shift.
        times = [t for _k, _n, t in rec.events]
        assert times == sorted(times)
        kinds = [k for k, _n, _t in rec.events]
        for a, b in zip(kinds, kinds[1:], strict=False):
            assert a != b

    def test_negative_burn_in_rejected(self):
        _, injector = make_injector()
        with pytest.raises(ValueError):
            injector.attach_host(interrupted_host(), burn_in=-1.0)


class TestPermanentFailures:
    def test_node_never_returns(self):
        sim, injector = make_injector()
        rec = Recorder(injector)
        perms = record_permanent(injector)
        injector.attach_host(interrupted_host())
        injector.schedule_permanent_failure("h0", at_time=50.0)
        sim.run(until=5000.0)
        assert perms == [("h0", 50.0)]
        assert injector.is_permanently_failed("h0")
        assert injector.is_down("h0")
        # No transition fires after the permanent loss.
        assert all(t <= 50.0 for _k, _n, t in rec.events)

    def test_permanent_while_already_down_fires_no_extra_down(self):
        sim, injector = make_injector()
        rec = Recorder(injector)
        injector.attach_trace(AvailabilityTrace("t0", 100.0, [(10.0, 20.0)]))
        injector.schedule_permanent_failure("t0", at_time=15.0)
        sim.run(until=100.0)
        assert rec.events == [("down", "t0", 10.0)]
        assert injector.is_down("t0")

    def test_second_permanent_failure_is_noop(self):
        sim, injector = make_injector()
        perms = record_permanent(injector)
        injector.attach_host(HostAvailability(host_id="h0"))
        injector.schedule_permanent_failure("h0", at_time=10.0)
        injector.schedule_permanent_failure("h0", at_time=20.0)
        sim.run(until=100.0)
        assert perms == [("h0", 10.0)]

    def test_unknown_node_rejected(self):
        _, injector = make_injector()
        with pytest.raises(KeyError):
            injector.schedule_permanent_failure("ghost", at_time=1.0)


class TestCorrelatedOutage:
    def test_all_nodes_drop_and_return_together(self):
        sim, injector = make_injector()
        rec = Recorder(injector)
        for i in range(3):
            injector.attach_host(HostAvailability(host_id=f"h{i}"))
        injector.schedule_outage(["h0", "h1", "h2"], start=10.0, duration=5.0)
        sim.run(until=100.0)
        downs = sorted(e for e in rec.events if e[0] == "down")
        ups = sorted(e for e in rec.events if e[0] == "up")
        assert downs == [("down", f"h{i}", 10.0) for i in range(3)]
        assert ups == [("up", f"h{i}", 15.0) for i in range(3)]

    def test_outage_skips_already_down_node(self):
        sim, injector = make_injector()
        rec = Recorder(injector)
        injector.attach_trace(AvailabilityTrace("t0", 100.0, [(5.0, 30.0)]))
        injector.attach_trace(AvailabilityTrace("t1", 100.0, []))
        injector.schedule_outage(["t0", "t1"], start=10.0, duration=5.0)
        sim.run(until=100.0)
        # t0's own episode governs its return; t1 follows the outage.
        assert ("up", "t0", 30.0) in rec.events
        assert ("up", "t1", 15.0) in rec.events
        assert [e for e in rec.events if e[0] == "down" and e[1] == "t0"] == [
            ("down", "t0", 5.0)
        ]

    def test_rejects_nonpositive_duration(self):
        _, injector = make_injector()
        injector.attach_host(HostAvailability(host_id="h0"))
        with pytest.raises(ValueError):
            injector.schedule_outage(["h0"], start=1.0, duration=0.0)


class TestInjectorTeardown:
    def test_stop_silences_everything(self):
        sim, injector = make_injector()
        rec = Recorder(injector)
        injector.attach_host(interrupted_host())
        injector.schedule_outage(["h0"], start=500.0, duration=5.0)
        injector.schedule_permanent_failure("h0", at_time=600.0)
        sim.run(until=100.0)
        fired_before = len(rec.events)
        assert fired_before > 0
        injector.stop()
        assert injector.stopped
        sim.run(until=5000.0)
        assert len(rec.events) == fired_before
        assert not injector.is_permanently_failed("h0")


class TestIdempotentTransitions:
    """Overlapping injected outages must not double-publish or double-count."""

    def test_overlapping_outages_publish_one_down_up_pair(self):
        sim, injector = make_injector()
        rec = Recorder(injector)
        injector.attach_host(HostAvailability(host_id="h0"))
        injector.schedule_outage(["h0"], start=10.0, duration=20.0)
        injector.schedule_outage(["h0"], start=15.0, duration=30.0)
        sim.run(until=100.0)
        # The second outage folds into the first (the node was already
        # down); its end event is never armed, so exactly one pair fires.
        assert rec.events == [("down", "h0", 10.0), ("up", "h0", 30.0)]
        assert injector.episode_count("h0") == 1
        assert injector.downtime_total("h0") == pytest.approx(20.0)

    def test_outage_overlapping_stream_episode_keeps_stream_alive(self):
        sim, injector = make_injector()
        rec = Recorder(injector)
        trace = AvailabilityTrace("t0", 1000.0, [(10.0, 30.0), (60.0, 70.0)])
        injector.attach_trace(trace)
        injector.schedule_outage(["t0"], start=5.0, duration=10.0)
        sim.run(until=1000.0)
        downs = [e for e in rec.events if e[0] == "down"]
        ups = [e for e in rec.events if e[0] == "up"]
        # The stream's (10,30) episode folds into the injected (5,15)
        # outage, yet the stream keeps advancing to its (60,70) episode.
        assert downs == [("down", "t0", 5.0), ("down", "t0", 60.0)]
        assert ups == [("up", "t0", 15.0), ("up", "t0", 70.0)]
        assert not injector.is_down("t0")

    def test_downtime_accounts_actual_elapsed_window(self):
        sim, injector = make_injector()
        injector.attach_trace(AvailabilityTrace("t0", 1000.0, [(10.0, 30.0)]))
        sim.run(until=1000.0)
        assert injector.downtime_total("t0") == pytest.approx(20.0)


class TestRecoveryStretch:
    def test_stretch_applies_to_episodes_beginning_inside_window(self):
        sim, injector = make_injector()
        rec = Recorder(injector)
        injector.attach_trace(AvailabilityTrace("t0", 1000.0, [(10.0, 20.0)]))
        injector.set_recovery_stretch("t0", 3.0)
        sim.run(until=1000.0)
        # Sampled 10s of downtime, served 30s.
        assert rec.events == [("down", "t0", 10.0), ("up", "t0", 40.0)]
        assert injector.downtime_total("t0") == pytest.approx(30.0)

    def test_stretch_spares_episode_already_in_progress(self):
        sim, injector = make_injector()
        rec = Recorder(injector)
        injector.attach_trace(AvailabilityTrace("t0", 1000.0, [(10.0, 20.0)]))
        sim.schedule_at(15.0, lambda: injector.set_recovery_stretch("t0", 5.0))
        sim.run(until=1000.0)
        assert rec.events == [("down", "t0", 10.0), ("up", "t0", 20.0)]

    def test_cleared_stretch_restores_sampled_durations(self):
        sim, injector = make_injector()
        rec = Recorder(injector)
        injector.attach_trace(
            AvailabilityTrace("t0", 1000.0, [(10.0, 20.0), (100.0, 110.0)])
        )
        injector.set_recovery_stretch("t0", 2.0)
        sim.schedule_at(50.0, lambda: injector.clear_recovery_stretch("t0"))
        sim.run(until=1000.0)
        ups = [e for e in rec.events if e[0] == "up"]
        assert ups == [("up", "t0", 30.0), ("up", "t0", 110.0)]

    def test_stretch_validation(self):
        _, injector = make_injector()
        injector.attach_host(HostAvailability(host_id="h0"))
        with pytest.raises(ValueError):
            injector.set_recovery_stretch("h0", 0.5)
        with pytest.raises(KeyError):
            injector.set_recovery_stretch("ghost", 2.0)
        # Clearing an unset stretch is a no-op.
        injector.clear_recovery_stretch("h0")


class TestPregenerateClosesSource:
    """Regression: materialise_prefix must release the source generator
    even when the materialised prefix is empty — a suspended frame per host
    is hundreds of megabytes at fleet scale."""

    @staticmethod
    def _spy_stream(episodes):
        state = {"closed": False}

        def gen():
            try:
                yield from episodes
            finally:
                state["closed"] = True

        return gen(), state

    def test_source_closed_after_normal_prefix(self):
        stream, state = self._spy_stream(
            [DowntimeEpisode(10.0, 12.0, 1), DowntimeEpisode(50.0, 51.0, 1)]
        )
        materialised = materialise_prefix(stream, 20.0)
        assert state["closed"]
        assert [e.start for e in materialised] == [10.0, 50.0]

    def test_source_closed_for_empty_prefix(self):
        # Horizon 0 with an exhausted source: nothing materialises, yet
        # the generator must still be closed.
        stream, state = self._spy_stream([])
        materialised = materialise_prefix(stream, 0.0)
        assert materialised == []
        assert state["closed"]

    def test_attach_with_pregen_closes_generator(self, monkeypatch):
        states = []
        real = process.InterruptionProcess.lazy_episodes

        def spied(proc, horizon):
            stream, state = self._spy_stream(real(proc, horizon))
            states.append(state)
            return stream

        monkeypatch.setattr(process.InterruptionProcess, "lazy_episodes", spied)
        prefix = episode_prefix(interrupted_host(), RandomSource(1), 100.0)
        # The host's generator is closed before attach: the injector gets a
        # plain list and never resumes a suspended generator frame.
        assert [state["closed"] for state in states] == [True]
        sim, injector = make_injector()
        injector.attach_host(interrupted_host(), episodes=prefix)
        sim.run(until=100.0)
        assert injector.episode_count("h0") > 0

    def test_pregen_horizon_zero_still_delivers_boundary_episode(self):
        # Contract: the first episode at/past the horizon is kept, so even
        # horizon=0 schedules the host's first interruption.
        sim, injector = make_injector()
        rec = Recorder(injector)
        prefix = episode_prefix(interrupted_host(), RandomSource(1), 0.0)
        injector.attach_host(interrupted_host(), episodes=prefix)
        sim.run(until=50.0)
        assert any(e[0] == "down" for e in rec.events)


class TestInjectedEpisodePrefix:
    """attach_host(episodes=...): where pregenerated prefixes enter."""

    def _events(self, seed, horizon, burn_in, injected):
        """Transitions up to ``horizon``, lazy or from an injected prefix."""
        sim = Simulator()
        injector = FailureInjector(sim, RandomSource(seed))
        rec = Recorder(injector)
        if injected:
            prefix = episode_prefix(interrupted_host(), RandomSource(seed), horizon, burn_in)
            injector.attach_host(interrupted_host(), episodes=prefix)
        else:
            injector.attach_host(interrupted_host(), burn_in=burn_in)
        sim.run(until=horizon)
        return rec.events

    def test_injected_prefix_matches_lazy_path(self):
        lazy = self._events(1, 300.0, 0.0, injected=False)
        assert lazy
        assert self._events(1, 300.0, 0.0, injected=True) == lazy

    def test_injected_prefix_with_burn_in_matches(self):
        lazy = self._events(2, 300.0, 77.0, injected=False)
        assert lazy
        assert self._events(2, 300.0, 77.0, injected=True) == lazy

    def test_episodes_excludes_other_knobs(self):
        _, injector = make_injector()
        prefix = [DowntimeEpisode(1.0, 2.0, 1)]
        with pytest.raises(ValueError, match="cannot be combined"):
            injector.attach_host(interrupted_host(), episodes=prefix, burn_in=5.0)

    def test_empty_prefix_means_never_interrupted(self):
        sim, injector = make_injector()
        rec = Recorder(injector)
        injector.attach_host(interrupted_host(), episodes=[])
        sim.run(until=1000.0)
        assert rec.events == []
        assert not injector.is_down("h0")


def seti_slice():
    """A 24-host SETI population and its stationary burn-in."""
    config = SimulationConfig(node_count=24, seed=1)
    return config.hosts(), config.cluster_config().stationary_burn_in


@pytest.fixture
def lazy_handles(monkeypatch):
    """Every handle ``Simulator.schedule_lazy`` returns."""
    handles = []
    real = Simulator.schedule_lazy

    def spied(sim, *args, **kwargs):
        handles.append(real(sim, *args, **kwargs))
        return handles[-1]

    monkeypatch.setattr(Simulator, "schedule_lazy", spied)
    return handles


class TestOpenEpisodes:
    """Open busy periods return through lazily timed events, exactly."""

    def _run(
        self, hosts, burn_in, horizon, injected, stretch=None, outage=None, attach_at=0.0
    ):
        """Transitions and fired events up to ``horizon``."""
        sim, injector = make_injector(seed=3)
        rec = Recorder(injector)

        def attach():
            for host in hosts:
                if injected:
                    prefix = episode_prefix(host, RandomSource(3), horizon, burn_in)
                    injector.attach_host(host, episodes=prefix)
                else:
                    injector.attach_host(host, burn_in=burn_in)
                if stretch is not None:
                    injector.set_recovery_stretch(host.host_id, stretch)
            if outage is not None:
                injector.schedule_outage([host.host_id for host in hosts], *outage)

        sim.schedule_at(attach_at, attach)
        sim.run(until=horizon)
        return rec.events, sim.events_fired

    @pytest.mark.parametrize("eager", [1, 2, process.EAGER_FOLD])
    @pytest.mark.parametrize("population", ["seti-burn-in", "table2-fresh"])
    def test_lazy_attach_equals_closed_prefixes(
        self, monkeypatch, lazy_handles, population, eager
    ):
        if population == "seti-burn-in":
            (hosts, burn_in), horizon = seti_slice(), 2e7
        else:
            hosts, burn_in, horizon = build_group_hosts(24, 1.0), 0.0, 5_000.0
        monkeypatch.setattr(process, "EAGER_FOLD", eager)
        lazy = self._run(hosts, burn_in, horizon, injected=False)
        assert lazy_handles
        # A fired handle reads as cancelled; none is cancelled here.
        fired = [handle for handle in lazy_handles if handle.cancelled]
        assert fired or (population == "seti-burn-in" and eager == process.EAGER_FOLD)
        lazy_handles.clear()
        assert self._run(hosts, burn_in, horizon, injected=True) == lazy
        assert not lazy_handles

    @pytest.mark.parametrize(
        "chaos",
        [{}, {"stretch": 1.5}, {"outage": (3_600.0, 7_200.0)}],
        ids=["plain", "stretch", "outage"],
    )
    def test_cut_prefixes_fire_lazy_transitions(self, chaos):
        # A one-day horizon cuts the prefixes of hosts still down there;
        # the run stays inside it and fires the lazy path's transitions.
        (hosts, burn_in), horizon = seti_slice(), 86_400.0
        prefixes = [episode_prefix(host, RandomSource(3), horizon, burn_in) for host in hosts]
        assert any(p and p[-1].start < horizon < p[-1].end for p in prefixes)
        lazy = self._run(hosts, burn_in, horizon, injected=False, **chaos)
        assert lazy[0]
        assert self._run(hosts, burn_in, horizon, injected=True, **chaos) == lazy

    def test_stretch_closes_the_episode_first(self, monkeypatch, lazy_handles):
        monkeypatch.setattr(process, "EAGER_FOLD", 1)
        hosts = build_group_hosts(8, 1.0)
        lazy = self._run(hosts, 0.0, 2_000.0, injected=False, stretch=1.5)
        assert not lazy_handles
        assert self._run(hosts, 0.0, 2_000.0, injected=True, stretch=1.5) == lazy

    def test_attached_mid_run(self, monkeypatch, lazy_handles):
        # Periods that started before the attach begin at once, with a
        # bound that may lie in the past: they fold on past the clock.
        monkeypatch.setattr(process, "EAGER_FOLD", 1)
        hosts = build_group_hosts(8, 1.0)
        lazy = self._run(hosts, 0.0, 2_000.0, injected=False, attach_at=300.0)
        assert lazy_handles
        assert self._run(hosts, 0.0, 2_000.0, injected=True, attach_at=300.0) == lazy

    def test_open_episodes_skipped_by_an_outage(self, monkeypatch, lazy_handles):
        # Periods that start inside the outage are folded away unread:
        # the stream closes them on resuming and must stay exact.
        monkeypatch.setattr(process, "EAGER_FOLD", 1)
        hosts = build_group_hosts(8, 1.0)
        lazy = self._run(hosts, 0.0, 2_000.0, injected=False, outage=(100.0, 400.0))
        assert lazy_handles
        assert self._run(hosts, 0.0, 2_000.0, injected=True, outage=(100.0, 400.0)) == lazy

    def test_permanent_failure_cancels_an_unresolved_return(self, lazy_handles):
        hosts, burn_in = seti_slice()
        host = next(h for h in hosts if h.arrival_rate * h.service_mean >= 1.0)
        sim, injector = make_injector()
        rec = Recorder(injector)
        injector.attach_host(host, burn_in=burn_in)
        injector.schedule_permanent_failure(host.host_id, 100.0)
        sim.run()
        assert rec.events == [("down", host.host_id, 0.0)]
        assert [handle.cancelled for handle in lazy_handles] == [True]
        assert sim.pending_events == 0

    def test_burn_in_folds_only_as_far_as_the_run(self, monkeypatch):
        # An eager fold takes this host's burn-in period to the 10,000
        # interruption bound at attach; a one-day run needs a fraction.
        hosts, burn_in = seti_slice()
        host = next(h for h in hosts if h.arrival_rate * h.service_mean >= 1.0)
        pulled = []
        real = process.InterruptionProcess.lazy_episodes

        def spied(proc, horizon):
            for episode in real(proc, horizon):
                pulled.append(episode)
                yield episode

        monkeypatch.setattr(process.InterruptionProcess, "lazy_episodes", spied)
        sim, injector = make_injector()
        injector.attach_host(host, burn_in=burn_in)
        sim.run(until=86_400.0)
        assert injector.is_down(host.host_id)
        folded = sum(episode.interruption_count for episode in pulled)
        assert 0 < folded < 2_000
