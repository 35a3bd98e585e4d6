"""Probability distributions for interruption modelling.

The paper assumes exponential interruption inter-arrivals and a *general*
recovery-time distribution with known mean (Section III.A). The simulator
therefore needs a small family of positive distributions with analytic
moments: exponential for arrivals, and lognormal/Weibull/Pareto for the
heavy-tailed durations observed in SETI@home-style traces (Table 1 reports
CoV values of 4.4 and 7.4, far above the exponential's CoV of 1).

Every distribution exposes ``mean``/``std`` (analytic) and ``sample(rng)``
(drawing from a :class:`repro.util.rng.RandomSource`), so calling code can
feed the analytic mean into the model of Section III while sampling the same
law in the simulator.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Dict, Mapping

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


class Weibull(Distribution):
    """Weibull distribution with scale and shape parameters."""

    def __init__(self, scale: float, shape: float) -> None:
        self._scale = check_positive("scale", scale)
        self._shape = check_positive("shape", shape)

    @property
    def scale(self) -> float:
        return self._scale

    @property
    def shape(self) -> float:
        return self._shape

    @property
    def mean(self) -> float:
        return self._scale * math.gamma(1.0 + 1.0 / self._shape)

    @property
    def std(self) -> float:
        g1 = math.gamma(1.0 + 1.0 / self._shape)
        g2 = math.gamma(1.0 + 2.0 / self._shape)
        return self._scale * math.sqrt(max(g2 - g1 * g1, 0.0))

    def sample(self, rng: RandomSource) -> float:
        return rng.weibullvariate(self._scale, self._shape)

    def __repr__(self) -> str:
        return f"Weibull(scale={self._scale:g}, shape={self._shape:g})"


class Pareto(Distribution):
    """Classic Pareto with minimum ``xm`` and tail index ``alpha``.

    The mean requires alpha > 1 and the variance alpha > 2; accessing a
    moment that does not exist raises ``ValueError`` so silent infinities
    never propagate into the placement model.
    """

    def __init__(self, xm: float, alpha: float) -> None:
        self._xm = check_positive("xm", xm)
        self._alpha = check_positive("alpha", alpha)

    @property
    def xm(self) -> float:
        return self._xm

    @property
    def alpha(self) -> float:
        return self._alpha

    @property
    def mean(self) -> float:
        if self._alpha <= 1.0:
            raise ValueError(f"Pareto mean undefined for alpha={self._alpha}")
        return self._alpha * self._xm / (self._alpha - 1.0)

    @property
    def std(self) -> float:
        if self._alpha <= 2.0:
            raise ValueError(f"Pareto std undefined for alpha={self._alpha}")
        a = self._alpha
        var = self._xm * self._xm * a / ((a - 1.0) ** 2 * (a - 2.0))
        return math.sqrt(var)

    def sample(self, rng: RandomSource) -> float:
        return self._xm * rng.paretovariate(self._alpha)

    def __repr__(self) -> str:
        return f"Pareto(xm={self._xm:g}, alpha={self._alpha:g})"


class ShiftedPareto(Distribution):
    """Lomax (Pareto type II) distribution: support [0, inf), very heavy tail.

    Parameterised by scale and tail index; useful for interruption durations
    where many events are near zero but the tail is extreme.
    """

    def __init__(self, scale: float, alpha: float) -> None:
        self._scale = check_positive("scale", scale)
        self._alpha = check_positive("alpha", alpha)

    @property
    def mean(self) -> float:
        if self._alpha <= 1.0:
            raise ValueError(f"Lomax mean undefined for alpha={self._alpha}")
        return self._scale / (self._alpha - 1.0)

    @property
    def std(self) -> float:
        if self._alpha <= 2.0:
            raise ValueError(f"Lomax std undefined for alpha={self._alpha}")
        a = self._alpha
        var = self._scale * self._scale * a / ((a - 1.0) ** 2 * (a - 2.0))
        return math.sqrt(var)

    def sample(self, rng: RandomSource) -> float:
        # inverse CDF: F(x) = 1 - (1 + x/scale)^-alpha
        u = rng.random()
        return self._scale * ((1.0 - u) ** (-1.0 / self._alpha) - 1.0)

    def __repr__(self) -> str:
        return f"ShiftedPareto(scale={self._scale:g}, alpha={self._alpha:g})"


_SPEC_BUILDERS = {
    "exponential": lambda p: Exponential(mean=p["mean"]),
    "deterministic": lambda p: Deterministic(value=p["value"]),
    "lognormal": lambda p: Lognormal(mean=p["mean"], cov=p["cov"]),
    "weibull": lambda p: Weibull(scale=p["scale"], shape=p["shape"]),
    "pareto": lambda p: Pareto(xm=p["xm"], alpha=p["alpha"]),
    "shifted_pareto": lambda p: ShiftedPareto(scale=p["scale"], alpha=p["alpha"]),
}


def distribution_from_spec(spec: Mapping[str, object]) -> Distribution:
    """Build a distribution from a dict spec like ``{"kind": "exponential", "mean": 10}``.

    This is the configuration-file entry point used by the experiment
    drivers and the CLI.
    """
    if "kind" not in spec:
        raise ValueError("distribution spec requires a 'kind' key")
    kind = str(spec["kind"]).lower()
    params: Dict[str, float] = {
        key: float(value)  # type: ignore[arg-type]
        for key, value in spec.items()
        if key != "kind"
    }
    try:
        builder = _SPEC_BUILDERS[kind]
    except KeyError:
        known = ", ".join(sorted(_SPEC_BUILDERS))
        raise ValueError(f"unknown distribution kind {kind!r}; known kinds: {known}") from None
    return builder(params)
