"""Online interruption-statistics estimators.

ADAPT's Performance Predictor lives on the NameNode and keeps, per node,
only "a data structure with two double data types ... the interruption
arrival rate and recovery time" (paper Section IV.B.1), updated from
heartbeat arrivals/misses. :class:`InterruptionStatsEstimator` reproduces
that: it folds observed downtime episodes and accumulated uptime into
running estimates of lambda (1/MTBI) and mu (mean recovery), optionally
blended with a prior so that cold-start placement is sane.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.util.validation import check_non_negative, check_positive

#: Availability floor used by the naive baseline when mu >= MTBI.
_EPSILON = 1e-9


@dataclass(frozen=True)
class AvailabilityEstimate:
    """A point estimate of one node's interruption behaviour.

    ``arrival_rate`` is lambda (interruptions per second of uptime) and
    ``recovery_mean`` is mu (seconds). ``observations`` counts how many
    downtime episodes informed the estimate (0 means prior-only).
    """

    arrival_rate: float
    recovery_mean: float
    observations: int = 0

    def __post_init__(self) -> None:
        check_non_negative("arrival_rate", self.arrival_rate)
        check_non_negative("recovery_mean", self.recovery_mean)
        if self.observations < 0:
            raise ValueError("observations must be non-negative")

    @property
    def mtbi(self) -> float:
        """Mean time between interruptions (infinite for a dedicated node)."""
        if self.arrival_rate == 0.0:
            return float("inf")
        return 1.0 / self.arrival_rate

    @property
    def is_dedicated(self) -> bool:
        """True when the node is believed never to be interrupted."""
        return self.arrival_rate == 0.0

    @property
    def steady_state_availability(self) -> float:
        """Long-run up fraction MTBI / (MTBI + mu)."""
        if self.is_dedicated:
            return 1.0
        return self.mtbi / (self.mtbi + self.recovery_mean)

    @property
    def naive_availability(self) -> float:
        """The paper's naive score (MTBI - mu) / MTBI, floored above zero.

        Section V.C defines the naive strategy's weight exactly this way;
        the floor guards the (physically possible) case mu >= MTBI where
        the formula would go non-positive.
        """
        if self.is_dedicated:
            return 1.0
        return max((self.mtbi - self.recovery_mean) / self.mtbi, _EPSILON)


class InterruptionStatsEstimator:
    """Running (lambda, mu) estimator for one node.

    Estimates are maximum-likelihood from observed data, smoothed with a
    prior expressed as pseudo-observations: the prior contributes
    ``prior_weight`` fictitious episodes whose MTBI/recovery are the prior
    values. With ``prior_weight=0`` the estimator is purely empirical and
    undefined until the first episode completes (it then reports the
    prior anyway, flagged with ``observations=0``).
    """

    def __init__(
        self,
        prior_mtbi: float = 1e7,
        prior_recovery: float = 0.0,
        prior_weight: float = 1.0,
    ) -> None:
        self._prior_mtbi = check_positive("prior_mtbi", prior_mtbi)
        self._prior_recovery = check_non_negative("prior_recovery", prior_recovery)
        self._prior_weight = check_non_negative("prior_weight", prior_weight)
        self._uptime = 0.0
        self._episodes = 0
        self._downtime_total = 0.0

    @property
    def observed_episodes(self) -> int:
        """Number of completed downtime episodes folded in so far."""
        return self._episodes

    @property
    def observed_uptime(self) -> float:
        """Total uptime seconds folded in so far."""
        return self._uptime

    def record_uptime(self, seconds: float) -> None:
        """Fold in ``seconds`` of observed uptime (heartbeats arriving)."""
        # Called once per heartbeat: the non-negative check is inlined.
        seconds = float(seconds)
        if not seconds >= 0:
            raise ValueError(f"seconds must be non-negative, got {seconds}")
        self._uptime += seconds

    def record_downtime(self, seconds: float) -> None:
        """Fold in one completed downtime episode of the given length."""
        self._downtime_total += check_non_negative("seconds", seconds)
        self._episodes += 1

    def estimate(self) -> AvailabilityEstimate:
        """Current blended (lambda, mu) estimate."""
        pseudo = self._prior_weight
        # lambda = episodes per second of uptime, with the prior acting as
        # `pseudo` episodes spread over `pseudo * prior_mtbi` seconds.
        eff_episodes = self._episodes + pseudo
        eff_uptime = self._uptime + pseudo * self._prior_mtbi
        if eff_uptime <= 0.0:
            # No uptime observed and no prior: report the prior MTBI anyway.
            arrival_rate = 1.0 / self._prior_mtbi
        else:
            arrival_rate = eff_episodes / eff_uptime
        eff_down = self._downtime_total + pseudo * self._prior_recovery
        denom = self._episodes + pseudo
        recovery = eff_down / denom if denom > 0 else self._prior_recovery
        return AvailabilityEstimate(
            arrival_rate=arrival_rate,
            recovery_mean=recovery,
            observations=self._episodes,
        )

    def reset(self) -> None:
        """Forget all observations (keeps the prior)."""
        self._uptime = 0.0
        self._episodes = 0
        self._downtime_total = 0.0


def oracle_estimate(
    arrival_rate: float,
    recovery_mean: float,
    observations: int = 1_000_000,
) -> AvailabilityEstimate:
    """An estimate carrying the *true* parameters (oracle ablation)."""
    return AvailabilityEstimate(
        arrival_rate=arrival_rate,
        recovery_mean=recovery_mean,
        observations=observations,
    )
