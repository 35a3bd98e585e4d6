"""Tests for the distribution family: analytic moments vs samples."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.availability.distributions import (
    Deterministic,
    Exponential,
    Lognormal,
)
from repro.util.rng import RandomSource
from repro.util.stats import RunningStats


def _sample_stats(dist, seed=7, n=20000):
    rng = RandomSource(seed)
    acc = RunningStats()
    for _ in range(n):
        acc.add(dist.sample(rng))
    return acc


class TestExponential:
    def test_moments(self):
        d = Exponential(mean=10.0)
        assert d.mean == 10.0
        assert d.std == 10.0
        assert d.cov == 1.0
        assert d.rate == pytest.approx(0.1)

    def test_samples_match_mean(self):
        acc = _sample_stats(Exponential(mean=5.0))
        assert acc.mean == pytest.approx(5.0, rel=0.05)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            Exponential(mean=0)

    @given(st.floats(min_value=0.01, max_value=1e4))
    @settings(max_examples=30)
    def test_cov_always_one(self, mean):
        assert Exponential(mean=mean).cov == pytest.approx(1.0)


class TestDeterministic:
    def test_point_mass(self):
        d = Deterministic(value=3.0)
        rng = RandomSource(1)
        assert d.mean == 3.0
        assert d.std == 0.0
        assert all(d.sample(rng) == 3.0 for _ in range(10))


class TestLognormal:
    def test_target_moments(self):
        d = Lognormal(mean=100.0, cov=2.0)
        assert d.mean == pytest.approx(100.0)
        assert d.std == pytest.approx(200.0)

    def test_samples_match_mean(self):
        acc = _sample_stats(Lognormal(mean=50.0, cov=0.5), n=30000)
        assert acc.mean == pytest.approx(50.0, rel=0.05)

    def test_samples_match_cov(self):
        acc = _sample_stats(Lognormal(mean=50.0, cov=0.8), n=50000)
        assert acc.std / acc.mean == pytest.approx(0.8, rel=0.15)

    def test_from_underlying_roundtrip(self):
        d = Lognormal(mean=100.0, cov=2.0)
        d2 = Lognormal.from_underlying(d.mu, d.sigma)
        assert d2.mean == pytest.approx(d.mean)
        assert d2.std == pytest.approx(d.std)

    @given(
        st.floats(min_value=0.1, max_value=1e5),
        st.floats(min_value=0.05, max_value=8.0),
    )
    @settings(max_examples=50)
    def test_parameterisation_invertible(self, mean, cov):
        d = Lognormal(mean=mean, cov=cov)
        # mean = exp(mu + sigma^2/2) must hold.
        assert math.exp(d.mu + d.sigma**2 / 2) == pytest.approx(mean, rel=1e-9)
