"""Tests for failure injection."""

import pytest

from repro.availability import pregen
from repro.availability.distributions import Deterministic, Exponential
from repro.availability.generator import HostAvailability
from repro.availability.pregen import SHIFTED_STREAMS, episode_prefix, materialise_prefix
from repro.availability.process import DowntimeEpisode
from repro.availability.traces import AvailabilityTrace
from repro.experiments.config import SimulationConfig
from repro.runtime import runner
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
        real = pregen.host_episodes

        def spied(host, rng):
            stream, state = self._spy_stream(real(host, rng))
            states.append(state)
            return stream

        monkeypatch.setattr(pregen, "host_episodes", spied)
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


class TestSharedBurnInStreams:
    """Same-seed lazy builds fold each host's burn-in once per process."""

    def _setup(self):
        config = SimulationConfig(node_count=12, tasks_per_node=2.0, seed=1)
        cluster_config = config.cluster_config(seed=5)
        assert cluster_config.stationary_burn_in > 0.0
        return config.hosts(), cluster_config

    def _run(self, monkeypatch, hosts, cluster_config, policy):
        """run_map_phase, also returning the cluster's fired event count."""
        built = []
        real = runner.build_cluster

        def capture(*args, **kwargs):
            built.append(real(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(runner, "build_cluster", capture)
        result = runner.run_map_phase(hosts, cluster_config, policy, blocks_per_node=2.0)
        return result, built[0].sim.events_fired

    def test_second_build_reuses_every_burn_in(self, monkeypatch, episode_calls):
        hosts, cluster_config = self._setup()
        SHIFTED_STREAMS.clear()
        shared = [
            self._run(monkeypatch, hosts, cluster_config, policy)
            for policy in ("existing", "adapt")
        ]
        interrupted = sum(1 for host in hosts if not host.is_dedicated)
        assert interrupted > 0
        assert len(episode_calls) == interrupted
        for policy, outcome in zip(("existing", "adapt"), shared, strict=True):
            SHIFTED_STREAMS.clear()
            assert self._run(monkeypatch, hosts, cluster_config, policy) == outcome

    def test_fresh_start_streams_stay_private(self):
        SHIFTED_STREAMS.clear()
        _, injector = make_injector()
        injector.attach_host(interrupted_host("h0"))
        assert len(SHIFTED_STREAMS) == 0
        injector.attach_host(interrupted_host("h1"), burn_in=50.0)
        assert len(SHIFTED_STREAMS) == 1
