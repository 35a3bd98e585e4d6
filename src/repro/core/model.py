"""Stochastic model of task execution under interruptions (Section III.B).

A task of failure-free length gamma runs on a host whose interruptions
arrive as a Poisson process with rate lambda and are serviced FCFS with mean
recovery mu (M/G/1). The total completion time decomposes as

    T = gamma + sum_{i=1..S} (X_i + Y_i)                        (formula 1)

with S failed attempts, X_i the rework lost to attempt i and Y_i the
downtime episode that ended it. The paper derives:

* E[X] = 1/lambda + gamma / (1 - e^{gamma*lambda})              (formula 2)
* E[Y] = mu / (1 - lambda*mu)                                   (formula 3)
* E[S] = e^{gamma*lambda} - 1                                   (formula 4)
* E[T] = (e^{gamma*lambda} - 1) (1/lambda + mu/(1 - lambda*mu)) (formula 5)

All functions accept ``lam == 0`` (a dedicated host) and then return the
degenerate values (no rework, no attempts, E[T] = gamma). ``lam * mu >= 1``
(an unstable interruption queue: the host is eventually down forever) raises
``UnstableHostError``.

``monte_carlo_task_time`` simulates the literal attempt process so tests can
validate the closed forms, and so the model's accuracy against the full
cluster simulator can be benchmarked (ablation A4 in DESIGN.md).
"""

from __future__ import annotations

import math
from typing import Optional

from repro.availability.distributions import Distribution, Exponential
from repro.util.rng import RandomSource
from repro.util.stats import RunningStats
from repro.util.validation import check_non_negative, check_positive


class UnstableHostError(ValueError):
    """Raised when lambda * mu >= 1 and the M/G/1 queue has no steady state."""


def _check_rates(lam: float, mu: float) -> None:
    check_non_negative("lam", lam)
    check_non_negative("mu", mu)
    if lam * mu >= 1.0:
        raise UnstableHostError(
            f"interruption load lambda*mu = {lam * mu:.4f} >= 1; the host is "
            "down in the long run and no finite expected task time exists"
        )


def expected_rework(gamma: float, lam: float) -> float:
    """E[X]: mean work lost per failed attempt (formula 2).

    X is the interruption arrival time conditioned on arriving before the
    task finishes: E[X] = 1/lambda + gamma / (1 - e^{gamma*lambda}).
    """
    check_positive("gamma", gamma)
    check_non_negative("lam", lam)
    if lam == 0.0:
        return 0.0
    return 1.0 / lam + gamma / (-math.expm1(gamma * lam))


def expected_downtime(lam: float, mu: float) -> float:
    """E[Y]: mean downtime episode, the M/G/1 busy period (formula 3)."""
    _check_rates(lam, mu)
    if mu == 0.0:
        return 0.0
    return mu / (1.0 - lam * mu)


def expected_attempts(gamma: float, lam: float) -> float:
    """E[S]: mean number of failed attempts before success (formula 4)."""
    check_positive("gamma", gamma)
    check_non_negative("lam", lam)
    if lam == 0.0:
        return 0.0
    return math.expm1(gamma * lam)


def expected_task_time(gamma: float, lam: float, mu: float) -> float:
    """E[T]: mean completion time of a gamma-length task (formula 5).

    E[T] = (e^{gamma*lambda} - 1) (1/lambda + mu/(1 - lambda*mu)); reduces
    to gamma when lambda == 0.
    """
    check_positive("gamma", gamma)
    _check_rates(lam, mu)
    if lam == 0.0:
        return gamma
    return math.expm1(gamma * lam) * (1.0 / lam + mu / (1.0 - lam * mu))


def monte_carlo_task_time(
    gamma: float,
    lam: float,
    rng: RandomSource,
    service: Optional[Distribution] = None,
    mu: float = 0.0,
    samples: int = 1000,
) -> RunningStats:
    """Simulate the literal attempt process of formula (1).

    Each sample replays: draw exponential interruption arrivals; an attempt
    succeeds if the next arrival exceeds the remaining gamma, otherwise the
    lost work X and a full M/G/1 busy period Y accrue and the attempt
    restarts. ``service`` defaults to ``Exponential(mu)`` when only ``mu``
    is given. Returns the running statistics of the sampled T.
    """
    check_positive("gamma", gamma)
    check_non_negative("lam", lam)
    if samples <= 0:
        raise ValueError(f"samples must be positive, got {samples}")
    if service is None:
        if mu > 0.0:
            service = Exponential(mean=mu)
        elif lam > 0.0:
            raise ValueError("interrupted hosts need a service distribution or mu > 0")

    stats = RunningStats()
    arrivals = rng.substream("arrivals")
    services = rng.substream("service")
    for _ in range(samples):
        total = 0.0
        if lam == 0.0:
            stats.add(gamma)
            continue
        while True:
            gap = arrivals.expovariate(lam)
            if gap >= gamma:
                total += gamma
                break
            # Failed attempt: lose the partial work, then sit out the busy
            # period (further interruptions during recovery queue FCFS).
            total += gap
            assert service is not None
            busy_until = service.sample(services)
            next_arrival = arrivals.expovariate(lam)
            while next_arrival < busy_until:
                busy_until += service.sample(services)
                next_arrival += arrivals.expovariate(lam)
            total += busy_until
        stats.add(total)
    return stats
