"""Streaming and summary statistics.

The evaluation reports means, standard deviations, and the coefficient of
variation (CoV) of interruption data (paper Table 1), and averages repeated
experiment runs. ``RunningStats`` provides numerically stable (Welford)
streaming moments; ``summarize`` produces the Table-1-style summary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Sequence


class RunningStats:
    """Welford online mean/variance accumulator."""

    def __init__(self) -> None:
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf

    def add(self, value: float) -> None:
        """Fold one observation into the accumulator."""
        value = float(value)
        self._count += 1
        delta = value - self._mean
        self._mean += delta / self._count
        self._m2 += delta * (value - self._mean)
        self._min = min(self._min, value)
        self._max = max(self._max, value)

    def extend(self, values: Iterable[float]) -> None:
        """Fold many observations."""
        for value in values:
            self.add(value)

    @property
    def count(self) -> int:
        return self._count

    @property
    def mean(self) -> float:
        if self._count == 0:
            raise ValueError("no observations")
        return self._mean

    @property
    def variance(self) -> float:
        """Sample variance (n-1 denominator)."""
        if self._count < 2:
            return 0.0
        return self._m2 / (self._count - 1)

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    @property
    def minimum(self) -> float:
        if self._count == 0:
            raise ValueError("no observations")
        return self._min

    @property
    def maximum(self) -> float:
        if self._count == 0:
            raise ValueError("no observations")
        return self._max

    @property
    def cov(self) -> float:
        """Coefficient of variation std/mean (0 when the mean is 0)."""
        mean = self.mean
        if mean == 0.0:
            return 0.0
        return self.std / abs(mean)


@dataclass(frozen=True)
class SummaryStats:
    """Immutable summary of a sample: the quantities in the paper's Table 1."""

    count: int
    mean: float
    std: float
    cov: float
    minimum: float
    maximum: float

    def as_row(self) -> List[str]:
        """Row cells for tabular display: mean, std dev, CoV."""
        return [f"{self.mean:.1f}", f"{self.std:.1f}", f"{self.cov:.4f}"]


def summarize(values: Sequence[float]) -> SummaryStats:
    """Summarise a non-empty sample into :class:`SummaryStats`."""
    if not values:
        raise ValueError("cannot summarise an empty sample")
    acc = RunningStats()
    acc.extend(values)
    return SummaryStats(
        count=acc.count,
        mean=acc.mean,
        std=acc.std,
        cov=acc.cov,
        minimum=acc.minimum,
        maximum=acc.maximum,
    )


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean of a non-empty sample."""
    if not values:
        raise ValueError("cannot average an empty sample")
    return sum(float(v) for v in values) / len(values)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    if not values:
        raise ValueError("cannot take percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    ordered = sorted(float(v) for v in values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return ordered[low]
    frac = rank - low
    value = ordered[low] * (1.0 - frac) + ordered[high] * frac
    # Clamp float interpolation noise back into the bracketing values.
    return min(max(value, ordered[low]), ordered[high])
