"""Tests for availability traces (interval algebra)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.availability.distributions import Exponential
from repro.availability.process import DowntimeEpisode, InterruptionProcess
from repro.availability.traces import AvailabilityTrace, pooled_summary
from repro.experiments.config import SimulationConfig
from repro.util.rng import RandomSource


def make_trace(windows, horizon=100.0, host="h0"):
    return AvailabilityTrace(host, horizon, windows)


class TestConstruction:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError, match="sorted"):
            make_trace([(10.0, 20.0), (5.0, 8.0)])

    def test_rejects_overlapping(self):
        with pytest.raises(ValueError, match="sorted"):
            make_trace([(0.0, 10.0), (5.0, 15.0)])

    def test_rejects_empty_window(self):
        with pytest.raises(ValueError, match="empty or inverted"):
            make_trace([(5.0, 5.0)])

    def test_clips_at_horizon(self):
        trace = make_trace([(90.0, 150.0)], horizon=100.0)
        assert trace.down_windows == [(90.0, 100.0)]

    def test_drops_windows_past_horizon(self):
        trace = make_trace([(150.0, 160.0)], horizon=100.0)
        assert trace.down_windows == []

    def test_always_up(self):
        trace = make_trace([], horizon=50.0)
        assert trace.uptime_fraction() == 1.0
        assert trace.interruption_count() == 0

    def test_from_episodes(self):
        eps = [DowntimeEpisode(1.0, 2.0, 1), DowntimeEpisode(5.0, 9.0, 2)]
        trace = AvailabilityTrace.from_episodes("h", 10.0, eps)
        assert trace.down_windows == [(1.0, 2.0), (5.0, 9.0)]


class TestQueries:
    def setup_method(self):
        self.trace = make_trace([(10.0, 20.0), (50.0, 60.0)], horizon=100.0)

    def test_downtime_accounting(self):
        assert self.trace.total_downtime() == pytest.approx(20.0)
        assert self.trace.uptime_fraction() == pytest.approx(0.8)
        assert self.trace.interruption_count() == 2

    def test_mtbi_samples(self):
        assert self.trace.mtbi_samples() == [10.0, 40.0]

    def test_duration_samples(self):
        assert self.trace.duration_samples() == [10.0, 10.0]


@st.composite
def window_lists(draw):
    """Sorted disjoint windows inside [0, 100)."""
    n = draw(st.integers(min_value=0, max_value=6))
    points = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=99.0, allow_nan=False),
            min_size=2 * n,
            max_size=2 * n,
            unique=True,
        )
    )
    points.sort()
    return [(points[2 * i], points[2 * i + 1]) for i in range(n)]


class TestTraceProperties:
    @given(window_lists())
    @settings(max_examples=100)
    def test_uptime_plus_downtime_is_horizon(self, windows):
        trace = make_trace(windows, horizon=100.0)
        down = sum(e - s for s, e in windows)
        assert trace.total_downtime() == pytest.approx(down)
        assert trace.uptime_fraction() * 100.0 + down == pytest.approx(100.0)


class TestFromProcess:
    def test_roundtrip_consistency(self):
        process = InterruptionProcess(
            Exponential(mean=10.0), Exponential(mean=2.0), RandomSource(3)
        )
        trace = AvailabilityTrace.from_process("h", 500.0, process)
        assert trace.interruption_count() > 5
        assert 0.0 < trace.uptime_fraction() < 1.0

    def test_open_stream_gives_the_closed_stream_windows(self):
        # A rho >= 1 host's busy period is folded only past the horizon,
        # not to the fold bound; clipped there, the windows are the same.
        hosts = SimulationConfig(node_count=24, seed=1).hosts()
        horizon, down_at_horizon = 1e6, 0
        for index, host in enumerate(hosts):
            if host.arrival_rate * host.service_mean < 1.0:
                continue
            got = AvailabilityTrace.from_process(
                host.host_id, horizon, host.process(RandomSource(index))
            )
            episodes = host.process(RandomSource(index)).episodes(horizon)
            want = AvailabilityTrace.from_episodes(host.host_id, horizon, episodes)
            assert got.down_windows == want.down_windows
            down_at_horizon += got.down_windows[-1][1] == horizon
        assert down_at_horizon


class TestPooledSummary:
    def test_pools_across_hosts(self):
        t1 = make_trace([(10.0, 20.0)], host="a")
        t2 = make_trace([(30.0, 35.0)], host="b")
        stats = pooled_summary([t1, t2])
        assert stats["mtbi"].count == 2
        assert stats["duration"].mean == pytest.approx(7.5)

    def test_no_interruptions_raises(self):
        with pytest.raises(ValueError, match="no interruptions"):
            pooled_summary([make_trace([], horizon=10.0, host="a")])
