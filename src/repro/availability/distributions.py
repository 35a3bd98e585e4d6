"""Probability distributions for interruption modelling.

The paper assumes exponential interruption inter-arrivals and a *general*
recovery-time distribution with known mean (Section III.A). The simulator
therefore needs a small family of positive distributions with analytic
moments: exponential for arrivals, and lognormal for the heavy-tailed
durations observed in SETI@home-style traces (Table 1 reports CoV values of
4.4 and 7.4, far above the exponential's CoV of 1).

Every distribution exposes ``mean``/``std`` (analytic) and ``sample(rng)``
(drawing from a :class:`repro.util.rng.RandomSource`), so calling code can
feed the analytic mean into the model of Section III while sampling the same
law in the simulator.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from repro.util.rng import RandomSource
from repro.util.validation import check_positive

#: Kinderman-Monahan rejection constant — must match ``random.NV_MAGICCONST``
#: exactly for the inlined lognormal fold in ``repro.availability.process``
#: to be bit-identical to ``Random.normalvariate``.
_NV_MAGICCONST = 4 * math.exp(-0.5) / math.sqrt(2.0)


class Distribution(ABC):
    """A positive continuous distribution with analytic first two moments."""

    @property
    @abstractmethod
    def mean(self) -> float:
        """Analytic mean."""

    @property
    @abstractmethod
    def std(self) -> float:
        """Analytic standard deviation."""

    @property
    def cov(self) -> float:
        """Analytic coefficient of variation (std / mean)."""
        return self.std / self.mean if self.mean else 0.0

    @abstractmethod
    def sample(self, rng: RandomSource) -> float:
        """Draw one sample using ``rng``."""


class Exponential(Distribution):
    """Exponential distribution, parameterised by its mean (1/rate)."""

    def __init__(self, mean: float) -> None:
        self._mean = check_positive("mean", mean)

    @property
    def rate(self) -> float:
        """Rate parameter lambda = 1/mean."""
        return 1.0 / self._mean

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def std(self) -> float:
        return self._mean

    def sample(self, rng: RandomSource) -> float:
        return rng.expovariate(self.rate)

    def __repr__(self) -> str:
        return f"Exponential(mean={self._mean:g})"


class Deterministic(Distribution):
    """Point mass at a fixed positive value (useful in tests)."""

    def __init__(self, value: float) -> None:
        self._value = check_positive("value", value)

    @property
    def mean(self) -> float:
        return self._value

    @property
    def std(self) -> float:
        return 0.0

    def sample(self, rng: RandomSource) -> float:
        return self._value

    def __repr__(self) -> str:
        return f"Deterministic(value={self._value:g})"


class Lognormal(Distribution):
    """Lognormal distribution parameterised by its *target* mean and CoV.

    Heavy-tailed durations in availability traces are commonly lognormal;
    parameterising by (mean, cov) instead of the underlying (mu, sigma)
    matches how the paper reports trace statistics (Table 1).
    """

    def __init__(self, mean: float, cov: float) -> None:
        self._mean = check_positive("mean", mean)
        self._cov = check_positive("cov", cov)
        # mean = exp(mu + sigma^2/2); var = mean^2 (exp(sigma^2) - 1)
        sigma2 = math.log(1.0 + self._cov * self._cov)
        self._sigma = math.sqrt(sigma2)
        self._mu = math.log(self._mean) - sigma2 / 2.0

    @classmethod
    def from_underlying(cls, mu: float, sigma: float) -> "Lognormal":
        """Build from the underlying normal parameters."""
        mean = math.exp(mu + sigma * sigma / 2.0)
        cov = math.sqrt(math.exp(sigma * sigma) - 1.0)
        return cls(mean=mean, cov=cov)

    @property
    def mu(self) -> float:
        """Underlying normal mean."""
        return self._mu

    @property
    def sigma(self) -> float:
        """Underlying normal standard deviation."""
        return self._sigma

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def std(self) -> float:
        return self._mean * self._cov

    def sample(self, rng: RandomSource) -> float:
        return rng.lognormvariate(self._mu, self._sigma)

    def __repr__(self) -> str:
        return f"Lognormal(mean={self._mean:g}, cov={self._cov:g})"
