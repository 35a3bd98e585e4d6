"""Tests for the M/G/1 interruption process."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.availability.distributions import Deterministic, Exponential
from repro.availability.process import DowntimeEpisode, InterruptionProcess
from repro.util.rng import RandomSource
from repro.util.stats import RunningStats


def _process(mtbi=10.0, mu=2.0, seed=5, **kwargs):
    return InterruptionProcess(
        arrival=Exponential(mean=mtbi),
        service=Exponential(mean=mu),
        rng=RandomSource(seed),
        **kwargs,
    )


class TestEpisodeInvariants:
    def test_episodes_sorted_and_disjoint(self):
        episodes = list(_process().episodes(horizon=5000.0))
        assert episodes, "expected at least one episode"
        for prev, cur in zip(episodes, episodes[1:], strict=False):
            assert prev.end <= cur.start
        assert all(e.start < 5000.0 for e in episodes)

    def test_episode_validation(self):
        with pytest.raises(ValueError):
            DowntimeEpisode(start=5.0, end=4.0, interruption_count=1)
        with pytest.raises(ValueError):
            DowntimeEpisode(start=1.0, end=2.0, interruption_count=0)

    def test_deterministic_given_seed(self):
        a = list(_process(seed=11).episodes(2000.0))
        b = list(_process(seed=11).episodes(2000.0))
        assert [(e.start, e.end) for e in a] == [(e.start, e.end) for e in b]

    def test_different_seeds_differ(self):
        a = list(_process(seed=11).episodes(2000.0))
        b = list(_process(seed=12).episodes(2000.0))
        assert [(e.start, e.end) for e in a] != [(e.start, e.end) for e in b]

    @given(st.integers(min_value=0, max_value=1000))
    @settings(max_examples=25, deadline=None)
    def test_invariants_hold_for_any_seed(self, seed):
        episodes = list(_process(seed=seed).episodes(1000.0))
        for episode in episodes:
            assert episode.duration >= 0
            assert episode.interruption_count >= 1
        for prev, cur in zip(episodes, episodes[1:], strict=False):
            assert prev.end <= cur.start


class TestQueueingTheory:
    def test_utilization(self):
        p = _process(mtbi=10.0, mu=4.0)
        assert p.utilization == pytest.approx(0.4)
        assert p.is_stable()

    def test_expected_episode_matches_formula3(self):
        # E[Y] = mu / (1 - lambda*mu): the paper's formula (3).
        p = _process(mtbi=10.0, mu=4.0)
        assert p.expected_episode_duration() == pytest.approx(4.0 / 0.6)

    def test_unstable_has_no_expected_episode(self):
        p = _process(mtbi=2.0, mu=4.0)
        assert not p.is_stable()
        with pytest.raises(ValueError, match="unstable"):
            p.expected_episode_duration()

    def test_busy_period_mean_empirical(self):
        # Sampled mean episode length should approach mu/(1-rho).
        acc = RunningStats()
        for seed in range(40):
            for episode in _process(mtbi=10.0, mu=3.0, seed=seed).episodes(20000.0):
                acc.add(episode.duration)
        assert acc.mean == pytest.approx(3.0 / 0.7, rel=0.1)

    def test_arrival_rate_of_episodes(self):
        # Busy periods start at rate lambda*(1-rho) in steady state.
        p = _process(mtbi=10.0, mu=3.0, seed=2)
        horizon = 200000.0
        count = len(list(p.episodes(horizon)))
        expected = horizon * (1.0 / 10.0) * (1.0 - 0.3)
        assert count == pytest.approx(expected, rel=0.1)


class TestUnstableSafety:
    def test_unstable_process_terminates(self):
        # lambda*mu = 5 >> 1: without the episode cap this would hang.
        p = _process(mtbi=1.0, mu=5.0, seed=3, max_interruptions_per_episode=100)
        episodes = list(p.episodes(horizon=10.0))
        assert episodes
        assert all(e.interruption_count <= 100 for e in episodes)

    def test_cap_validation(self):
        with pytest.raises(ValueError):
            _process(max_interruptions_per_episode=0)

    def test_capped_episode_is_long(self):
        # The truncated busy period still represents a long departure.
        p = _process(mtbi=1.0, mu=5.0, seed=3, max_interruptions_per_episode=50)
        first = list(p.episodes(horizon=10.0))[0]
        assert first.duration > 50.0  # >> typical recovery


class TestDeterministicService:
    def test_fixed_recovery(self):
        p = InterruptionProcess(
            arrival=Exponential(mean=100.0),
            service=Deterministic(value=2.0),
            rng=RandomSource(1),
        )
        episodes = list(p.episodes(horizon=10000.0))
        # With rho = 0.02, almost every episode is a single interruption.
        singles = [e for e in episodes if e.interruption_count == 1]
        assert len(singles) >= 0.9 * len(episodes)
        for e in singles:
            assert e.duration == pytest.approx(2.0)
