"""Tests for the online interruption-statistics estimators."""

import pytest

from repro.availability.estimators import (
    AvailabilityEstimate,
    InterruptionStatsEstimator,
)


class TestAvailabilityEstimate:
    def test_mtbi_inverse_of_rate(self):
        est = AvailabilityEstimate(arrival_rate=0.1, recovery_mean=4.0)
        assert est.mtbi == pytest.approx(10.0)

    def test_dedicated(self):
        est = AvailabilityEstimate(arrival_rate=0.0, recovery_mean=0.0)
        assert est.is_dedicated
        assert est.mtbi == float("inf")
        assert est.steady_state_availability == 1.0
        assert est.naive_availability == 1.0

    def test_steady_state_availability(self):
        est = AvailabilityEstimate(arrival_rate=0.1, recovery_mean=10.0)
        # MTBI 10, recovery 10 -> up half the time.
        assert est.steady_state_availability == pytest.approx(0.5)

    def test_naive_availability_matches_paper_formula(self):
        # (MTBI - mu) / MTBI, Section V.C.
        est = AvailabilityEstimate(arrival_rate=0.05, recovery_mean=4.0)
        assert est.naive_availability == pytest.approx((20.0 - 4.0) / 20.0)

    def test_naive_availability_floored(self):
        # mu > MTBI would make the paper's formula negative; we floor it.
        est = AvailabilityEstimate(arrival_rate=1.0, recovery_mean=5.0)
        assert est.naive_availability > 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            AvailabilityEstimate(arrival_rate=-1.0, recovery_mean=0.0)
        with pytest.raises(ValueError):
            AvailabilityEstimate(arrival_rate=0.0, recovery_mean=0.0, observations=-1)


class TestEstimator:
    def test_prior_only(self):
        est = InterruptionStatsEstimator(prior_mtbi=100.0, prior_recovery=5.0)
        estimate = est.estimate()
        assert estimate.mtbi == pytest.approx(100.0)
        assert estimate.recovery_mean == pytest.approx(5.0)
        assert estimate.observations == 0

    def test_converges_to_observations(self):
        # The prior acts as prior_weight pseudo-episodes spread over
        # prior_weight * prior_mtbi pseudo-uptime; a weak prior lets the
        # data dominate quickly.
        est = InterruptionStatsEstimator(prior_mtbi=1e6, prior_recovery=0.0, prior_weight=1e-4)
        # 100 episodes over 1000s of uptime: MTBI ~ 10s, recovery ~ 2s.
        for _ in range(100):
            est.record_uptime(10.0)
            est.record_downtime(2.0)
        estimate = est.estimate()
        assert estimate.mtbi == pytest.approx(10.0, rel=0.2)
        assert estimate.recovery_mean == pytest.approx(2.0, rel=0.05)
        assert estimate.observations == 100

    def test_prior_dominates_early(self):
        est = InterruptionStatsEstimator(prior_mtbi=50.0, prior_recovery=3.0, prior_weight=10.0)
        est.record_uptime(1.0)
        est.record_downtime(100.0)
        # One wild observation against 10 pseudo-observations barely moves it.
        assert est.estimate().recovery_mean < 15.0

    def test_pure_empirical_mode(self):
        est = InterruptionStatsEstimator(prior_mtbi=123.0, prior_weight=0.0)
        est.record_uptime(30.0)
        est.record_downtime(6.0)
        estimate = est.estimate()
        assert estimate.mtbi == pytest.approx(30.0)
        assert estimate.recovery_mean == pytest.approx(6.0)

    def test_rejects_negative(self):
        est = InterruptionStatsEstimator()
        with pytest.raises(ValueError):
            est.record_uptime(-1.0)
        with pytest.raises(ValueError):
            est.record_downtime(-1.0)
