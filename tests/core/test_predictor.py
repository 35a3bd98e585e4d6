"""Tests for the NameNode-side Performance Predictor."""

import pytest

from repro.availability.estimators import AvailabilityEstimate
from repro.core.predictor import PerformancePredictor


class TestRegistration:
    def test_register_and_list(self):
        p = PerformancePredictor()
        p.register_node("b")
        p.register_node("a")
        assert p.node_ids == ["a", "b"]

    def test_register_idempotent(self):
        p = PerformancePredictor()
        p.register_node("x")
        p.observe_downtime("x", 5.0)
        p.register_node("x")  # must not reset the estimator
        assert p.estimate("x").observations == 1

    def test_unknown_node_raises_on_estimate(self):
        p = PerformancePredictor()
        with pytest.raises(KeyError):
            p.estimate("ghost")

    def test_observation_auto_registers(self):
        # A heartbeat collector may report a node that joined mid-run
        # before anyone registered it; the observation must not be lost.
        p = PerformancePredictor()
        p.observe_uptime("joiner", 20.0)
        p.observe_downtime("joiner", 4.0)
        assert "joiner" in p.node_ids
        assert p.estimate("joiner").observations == 1


class TestEstimates:
    def test_estimated_mode_learns(self):
        p = PerformancePredictor(prior_mtbi=1e6, prior_weight=1e-4)
        p.register_node("n")
        for _ in range(50):
            p.observe_uptime("n", 20.0)
            p.observe_downtime("n", 4.0)
        est = p.estimate("n")
        assert est.mtbi == pytest.approx(20.0, rel=0.2)
        assert est.recovery_mean == pytest.approx(4.0, rel=0.1)

    def test_oracle_overrides(self):
        p = PerformancePredictor()
        p.pin_oracle("n", AvailabilityEstimate(arrival_rate=0.1, recovery_mean=8.0))
        p.observe_uptime("n", 1e9)  # should be ignored while pinned
        assert p.estimate("n").mtbi == pytest.approx(10.0)
