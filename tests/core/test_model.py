"""Tests for the stochastic task-execution model (formulas 1-5)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.availability.distributions import Deterministic, Lognormal
from repro.core.model import (
    UnstableHostError,
    expected_attempts,
    expected_downtime,
    expected_rework,
    expected_task_time,
    monte_carlo_task_time,
)
from repro.util.rng import RandomSource

#: Table 2 parameters with the paper's gamma = 12s.
GROUPS = [(10.0, 4.0), (10.0, 8.0), (20.0, 4.0), (20.0, 8.0)]
GAMMA = 12.0

rates = st.floats(min_value=1e-6, max_value=0.2)
gammas = st.floats(min_value=0.1, max_value=100.0)


class TestClosedForms:
    def test_formula2_rework(self):
        # E[X] = 1/lambda + gamma/(1 - e^{gamma*lambda}).
        lam = 0.05
        expected = 1.0 / lam + GAMMA / (1.0 - math.exp(GAMMA * lam))
        assert expected_rework(GAMMA, lam) == pytest.approx(expected)

    def test_formula3_downtime(self):
        # E[Y] = mu / (1 - lambda*mu).
        assert expected_downtime(0.05, 8.0) == pytest.approx(8.0 / 0.6)

    def test_formula4_attempts(self):
        # E[S] = e^{gamma*lambda} - 1.
        assert expected_attempts(GAMMA, 0.1) == pytest.approx(math.exp(1.2) - 1.0)

    def test_formula5_task_time(self):
        # E[T] = (e^{gamma*lambda} - 1)(1/lambda + mu/(1 - lambda*mu)).
        lam, mu = 0.1, 4.0
        expected = (math.exp(GAMMA * lam) - 1.0) * (1.0 / lam + mu / (1.0 - lam * mu))
        assert expected_task_time(GAMMA, lam, mu) == pytest.approx(expected)

    def test_decomposition_consistency(self):
        # E[T] = gamma + E[S](E[X] + E[Y]) must equal formula 5.
        lam, mu = 0.08, 3.0
        direct = expected_task_time(GAMMA, lam, mu)
        composed = GAMMA + expected_attempts(GAMMA, lam) * (
            expected_rework(GAMMA, lam) + expected_downtime(lam, mu)
        )
        assert direct == pytest.approx(composed)

    def test_dedicated_host_degenerates(self):
        assert expected_task_time(GAMMA, 0.0, 0.0) == GAMMA
        assert expected_rework(GAMMA, 0.0) == 0.0
        assert expected_attempts(GAMMA, 0.0) == 0.0

    def test_unstable_raises(self):
        with pytest.raises(UnstableHostError):
            expected_task_time(GAMMA, 0.5, 3.0)
        with pytest.raises(UnstableHostError):
            expected_downtime(1.0, 1.0)

    def test_slowdown(self):
        # The `model` command's slowdown row: E[T] / gamma.
        assert expected_task_time(GAMMA, 0.0, 0.0) / GAMMA == 1.0
        assert expected_task_time(GAMMA, 0.05, 4.0) / GAMMA > 1.0

    def test_rework_bounded_by_gamma(self):
        # The lost work X is conditioned on arriving inside (0, gamma).
        for lam in (0.001, 0.05, 0.5):
            assert 0.0 < expected_rework(GAMMA, lam) < GAMMA

    def test_table2_group_values(self):
        # Spot-check all four emulation groups give finite, ordered times.
        times = [expected_task_time(GAMMA, 1.0 / m, mu) for m, mu in GROUPS]
        assert all(t > GAMMA for t in times)
        # group 2 (MTBI 10, mu 8) is the worst; group 3 (20, 4) the best.
        assert times[1] == max(times)
        assert times[2] == min(times)


class TestModelProperties:
    @given(gammas, rates)
    @settings(max_examples=100)
    def test_monotone_in_mu(self, gamma, lam):
        mus = [0.0, 1.0, 2.0]
        values = []
        for mu in mus:
            if lam * mu < 1.0:
                values.append(expected_task_time(gamma, lam, mu))
        assert values == sorted(values)

    @given(gammas, st.floats(min_value=1e-5, max_value=0.05))
    @settings(max_examples=100)
    def test_monotone_in_lambda(self, gamma, lam):
        mu = 2.0
        t1 = expected_task_time(gamma, lam, mu)
        t2 = expected_task_time(gamma, lam * 2, mu)
        assert t2 >= t1

    @given(st.floats(min_value=1e-5, max_value=0.05), st.floats(min_value=0.0, max_value=10.0))
    @settings(max_examples=100)
    def test_monotone_in_gamma(self, lam, mu):
        t1 = expected_task_time(5.0, lam, mu)
        t2 = expected_task_time(10.0, lam, mu)
        assert t2 > t1

    @given(gammas, rates, st.floats(min_value=0.0, max_value=5.0))
    @settings(max_examples=100)
    def test_at_least_gamma(self, gamma, lam, mu):
        if lam * mu >= 0.99:
            return
        assert expected_task_time(gamma, lam, mu) >= gamma * (1.0 - 1e-9)

    @given(gammas)
    @settings(max_examples=50)
    def test_continuity_at_lambda_zero(self, gamma):
        # E[T] must approach gamma as lambda -> 0 (no discontinuity).
        near_zero = expected_task_time(gamma, 1e-9, 1.0)
        assert near_zero == pytest.approx(gamma, rel=1e-6)


class TestMonteCarloValidation:
    """The closed forms against a literal simulation of the attempt process."""

    @pytest.mark.parametrize("mtbi,mu", GROUPS)
    def test_formula5_matches_simulation(self, mtbi, mu):
        lam = 1.0 / mtbi
        stats = monte_carlo_task_time(
            GAMMA, lam, RandomSource(42), mu=mu, samples=4000
        )
        predicted = expected_task_time(GAMMA, lam, mu)
        # Monte-Carlo error: compare within 3 standard errors + 5%.
        stderr = stats.std / math.sqrt(stats.count)
        assert abs(stats.mean - predicted) < 3 * stderr + 0.05 * predicted

    def test_general_service_distribution(self):
        # Formula 3/5 only uses the service *mean*: a deterministic
        # recovery with the same mean must agree for E[T].
        lam, mu = 0.05, 4.0
        stats = monte_carlo_task_time(
            GAMMA,
            lam,
            RandomSource(7),
            service=Deterministic(value=mu),
            samples=4000,
        )
        predicted = expected_task_time(GAMMA, lam, mu)
        stderr = stats.std / math.sqrt(stats.count)
        assert abs(stats.mean - predicted) < 3 * stderr + 0.05 * predicted

    def test_lognormal_service(self):
        lam, mu = 0.04, 5.0
        stats = monte_carlo_task_time(
            GAMMA,
            lam,
            RandomSource(9),
            service=Lognormal(mean=mu, cov=1.5),
            samples=6000,
        )
        predicted = expected_task_time(GAMMA, lam, mu)
        stderr = stats.std / math.sqrt(stats.count)
        assert abs(stats.mean - predicted) < 4 * stderr + 0.08 * predicted

    def test_dedicated_is_exact(self):
        stats = monte_carlo_task_time(GAMMA, 0.0, RandomSource(1), samples=100)
        assert stats.mean == GAMMA
        assert stats.std == 0.0

    def test_requires_service_for_interrupted(self):
        with pytest.raises(ValueError, match="service"):
            monte_carlo_task_time(GAMMA, 0.1, RandomSource(1))

    def test_sample_count_validated(self):
        with pytest.raises(ValueError):
            monte_carlo_task_time(GAMMA, 0.0, RandomSource(1), samples=0)
