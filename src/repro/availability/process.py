"""Per-host interruption processes with M/G/1 recovery semantics.

Paper Section III.A: interruption inter-arrivals on host *i* are iid
exponential with rate lambda_i; each interruption needs a service (recovery)
time drawn from a general distribution with mean mu. Interruptions arriving
while a previous one is still being serviced queue FCFS — the host is an
M/G/1 queue, and the host is *down* for the whole busy period.

:class:`InterruptionProcess` turns those assumptions into a lazy stream of
:class:`DowntimeEpisode` objects (busy periods). The mean episode length is
the M/G/1 busy-period mean mu / (1 - lambda*mu), which is exactly the E(Y)
of the paper's formula (3); tests cross-check the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Union, cast

from repro.availability.distributions import (
    _NV_MAGICCONST,
    Distribution,
    Exponential,
    Lognormal,
)
from repro.util.rng import RandomSource
from repro.util.validation import check_positive


@dataclass(frozen=True)
class DowntimeEpisode:
    """One contiguous down window (an M/G/1 busy period).

    ``start`` is the arrival of the first interruption of the episode (the
    host goes down), ``end`` is when every queued interruption has been
    serviced (the host returns), and ``interruption_count`` is how many
    interruptions were folded into the episode.
    """

    start: float
    end: float
    interruption_count: int

    @property
    def duration(self) -> float:
        """Length of the down window."""
        return self.end - self.start

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"episode ends ({self.end}) before it starts ({self.start})")
        if self.interruption_count < 1:
            raise ValueError("an episode contains at least one interruption")


#: Interruptions :meth:`InterruptionProcess.lazy_episodes` folds into a
#: busy period before yielding it open. A stable host's period almost
#: never gets this long; a rho >= 1 host's period then folds only as far
#: as its reader extends it, not to the fold bound at once.
EAGER_FOLD = 64


class OpenEpisode:
    """A busy period folded only part of the way: its end is not known yet.

    ``busy_until`` is a lower bound on the end: every interruption folded
    so far has been serviced by then. :meth:`extend` continues the
    stream's own fold (same formulas, draws in the same order, same fold
    bound and truncation draw), so the period closes exactly where the
    eager fold closes it. The stream that yielded the episode closes it
    when it is resumed (a no-op if already closed) and continues from
    ``t``, the next arrival, so its later episodes do not change either.

    ``offset`` re-bases the episode's times on a burn-in window
    (:func:`repro.availability.pregen.shift_episodes` sets it with
    ``start``): :attr:`bound`, :attr:`end` and :meth:`extend`'s target
    are ``offset`` seconds earlier than the stream's own clock.
    """

    __slots__ = (
        "start",
        "busy_until",
        "interruption_count",
        "t",
        "offset",
        "closed",
        "_fold",
        "arnd",
        "srnd",
    )

    def __init__(
        self,
        start: float,
        busy_until: float,
        interruption_count: int,
        t: float,
        fold: Callable[["OpenEpisode", float], None],
        arnd: Callable[[], float],
        srnd: Callable[[], float],
    ) -> None:
        self.start = start
        self.busy_until = busy_until
        self.interruption_count = interruption_count
        self.t = t
        self.offset = 0.0
        self.closed = False
        self._fold = fold
        #: The stream's arrival and service uniform samplers.
        self.arnd = arnd
        self.srnd = srnd

    @property
    def bound(self) -> float:
        """A lower bound on :attr:`end` (the end itself once closed)."""
        return self.busy_until - self.offset

    @property
    def end(self) -> float:
        """When the host returns; only a closed episode knows it."""
        if not self.closed:
            raise ValueError("an open episode has no end yet; extend it first")
        return self.busy_until - self.offset

    def extend(self, target: float) -> bool:
        """Fold on until the period closes or :attr:`bound` passes ``target``.

        Returns whether the period is closed.
        """
        if not self.closed:
            self._fold(self, target)
        return self.closed


#: What :meth:`InterruptionProcess.lazy_episodes` yields.
Episode = Union[DowntimeEpisode, OpenEpisode]


def cut_at_horizon(episodes: Iterable[Episode], horizon: float) -> Iterator[DowntimeEpisode]:
    """Close a lazy stream's episodes, ending it at a period still open at ``horizon``.

    An open episode is extended to ``horizon``. One that closes is yielded
    as the :class:`DowntimeEpisode` :meth:`InterruptionProcess.episodes`
    yields. One still open is yielded closed at its bound, which lies past
    ``horizon`` and at or before its true end, and nothing follows it: the
    stream is not resumed, so neither its fold nor its samplers outlive
    it. Before the horizon the host's states are the closed stream's.
    """
    for episode in episodes:
        if isinstance(episode, OpenEpisode):
            closed = episode.extend(horizon)
            yield DowntimeEpisode(episode.start, episode.bound, episode.interruption_count)
            if not closed:
                return
        else:
            yield episode


class InterruptionProcess:
    """Lazy generator of downtime episodes for a single host.

    Parameters
    ----------
    arrival:
        Inter-arrival distribution of interruptions. The paper assumes
        exponential; any positive distribution is accepted so ablations can
        probe the exponential assumption.
    service:
        Recovery-time distribution (general, per the paper).
    rng:
        Dedicated random stream for this host.
    max_interruptions_per_episode:
        Safety bound on how many queued interruptions one busy period may
        accumulate. An *unstable* host (lambda * mu >= 1) has, with positive
        probability, an infinite busy period — physically, a volunteer that
        leaves and never returns, which real SETI@home traces do contain.
        When the bound trips, the episode ends at the accumulated recovery
        point (already astronomically far in the future for any job); for
        stable hosts the bound is effectively never reached.
    """

    def __init__(
        self,
        arrival: Distribution,
        service: Distribution,
        rng: RandomSource,
        max_interruptions_per_episode: int = 10_000,
    ) -> None:
        if max_interruptions_per_episode < 1:
            raise ValueError("max_interruptions_per_episode must be >= 1")
        self._arrival = arrival
        self._service = service
        self._rng = rng
        self._max_per_episode = max_interruptions_per_episode

    @property
    def arrival_rate(self) -> float:
        """lambda = 1 / mean inter-arrival."""
        return 1.0 / self._arrival.mean

    @property
    def service_mean(self) -> float:
        """mu = mean recovery time."""
        return self._service.mean

    def episodes(self, horizon: float) -> Iterator[DowntimeEpisode]:
        """Yield downtime episodes whose *start* falls in [0, horizon).

        Episodes are emitted in increasing start order and never overlap.
        The last episode may end after ``horizon``; callers that need a
        bounded trace clip it (see ``AvailabilityTrace.from_episodes``).
        Arrivals draw from this process's ``"arrivals"`` substream and
        recoveries from its ``"service"`` substream.

        This loop dominates whole-cluster build and run time at scale
        (~98% of the 16k-node kernel cell), so the two distribution pairs
        every shipped population uses — exponential arrivals with lognormal
        (SETI traces) or exponential (Table 2 emulation) recovery — dispatch
        to specialised generators that inline the CPython ``random`` draw
        formulas directly into the busy-period fold. No per-draw method
        calls, and no retained buffers: a suspended generator holds its
        two substreams' ``random.Random`` states (2,560 bytes each by
        ``sys.getsizeof``) and a few floats. Emitted episodes are
        bit-identical to the generic scalar path (pinned by
        tests/availability/test_vectorized.py).
        """
        # With ``eager`` at the fold bound, no period is left open.
        return cast(Iterator[DowntimeEpisode], self._stream(horizon, self._max_per_episode))

    def lazy_episodes(self, horizon: float) -> Iterator[Episode]:
        """:meth:`episodes`, with long busy periods left open.

        The inlined folds yield a period still open after
        :data:`EAGER_FOLD` interruptions as an :class:`OpenEpisode`, which
        folds further only as far as its reader extends it; every other
        period is the same :class:`DowntimeEpisode`. Closed piecewise,
        the stream equals :meth:`episodes` episode for episode. The
        generic fold stays eager: it is the oracle the inlined folds are
        pinned against.
        """
        return self._stream(horizon, min(self._max_per_episode, EAGER_FOLD))

    def _stream(self, horizon: float, eager: int) -> Iterator[Episode]:
        """Dispatch to a fold that yields a period open after ``eager``
        interruptions unless it has reached the fold bound."""
        check_positive("horizon", horizon)
        clock = self._rng.substream("arrivals")
        svc_rng = self._rng.substream("service")
        arrival = self._arrival
        service = self._service
        if type(arrival) is Exponential:
            if type(service) is Lognormal:
                return self._episodes_expo_lognormal(clock, svc_rng, horizon, eager)
            if type(service) is Exponential:
                return self._episodes_expo_expo(clock, svc_rng, horizon, eager)
        return self._episodes_generic(clock, svc_rng, horizon)

    def _episodes_generic(
        self,
        clock: RandomSource,
        svc_rng: RandomSource,
        horizon: float,
    ) -> Iterator[DowntimeEpisode]:
        """Reference busy-period fold: one ``Distribution.sample`` per draw.

        It serves every pair without an inlined fold below (deterministic
        recovery, non-exponential arrivals), and the inlined folds are
        pinned bit-identical to it.
        """
        arrival = self._arrival
        service = self._service
        max_per = self._max_per_episode

        t = arrival.sample(clock)
        while t < horizon:
            # A new busy period begins at this arrival.
            start = t
            busy_until = t + service.sample(svc_rng)
            count = 1
            t += arrival.sample(clock)
            # Fold in every interruption that arrives before recovery ends.
            while t < busy_until and count < max_per:
                busy_until += service.sample(svc_rng)
                count += 1
                t += arrival.sample(clock)
            if t < busy_until:
                # Episode truncated by the safety bound (unstable host that
                # effectively never returns): resume arrivals after the end.
                # Exact for exponential inter-arrivals (memorylessness).
                t = busy_until + arrival.sample(clock)
            yield DowntimeEpisode(start=start, end=busy_until, interruption_count=count)

    def _episodes_expo_lognormal(
        self,
        clock: RandomSource,
        svc_rng: RandomSource,
        horizon: float,
        eager: int,
    ) -> Iterator[Episode]:
        """Busy-period fold with ``expovariate``/``lognormvariate`` inlined.

        The arrival draw is ``-log(1 - u) / lambd`` (``Random.expovariate``)
        and the service draw is ``exp(mu + z * sigma)`` with ``z`` from the
        Kinderman-Monahan rejection sampler behind ``Random.normalvariate``
        — the exact formulas, so draws are bit-identical to the generic path
        and the stream advances by the same number of uniforms.
        """
        assert isinstance(self._arrival, Exponential)
        assert isinstance(self._service, Lognormal)
        lambd = self._arrival.rate
        mu = self._service.mu
        sigma = self._service.sigma
        max_per = self._max_per_episode
        arnd = clock.raw_random
        srnd = svc_rng.raw_random
        log = math.log
        exp = math.exp
        magic = _NV_MAGICCONST

        t = -log(1.0 - arnd()) / lambd
        while t < horizon:
            start = t
            while True:
                u1 = srnd()
                u2 = 1.0 - srnd()
                z = magic * (u1 - 0.5) / u2
                if z * z / 4.0 <= -log(u2):
                    break
            busy_until = t + exp(mu + z * sigma)
            count = 1
            t += -log(1.0 - arnd()) / lambd
            while t < busy_until and count < eager:
                while True:
                    u1 = srnd()
                    u2 = 1.0 - srnd()
                    z = magic * (u1 - 0.5) / u2
                    if z * z / 4.0 <= -log(u2):
                        break
                busy_until += exp(mu + z * sigma)
                count += 1
                t += -log(1.0 - arnd()) / lambd
            if t < busy_until:
                if count < max_per:
                    episode = OpenEpisode(
                        start, busy_until, count, t, self._extend_expo_lognormal, arnd, srnd
                    )
                    yield episode
                    episode.extend(math.inf)
                    t = episode.t
                    continue
                t = busy_until + -log(1.0 - arnd()) / lambd
            yield DowntimeEpisode(start=start, end=busy_until, interruption_count=count)

    def _extend_expo_lognormal(self, episode: OpenEpisode, target: float) -> None:
        """:meth:`OpenEpisode.extend` for :meth:`_episodes_expo_lognormal`."""
        assert isinstance(self._arrival, Exponential)
        assert isinstance(self._service, Lognormal)
        lambd = self._arrival.rate
        mu = self._service.mu
        sigma = self._service.sigma
        max_per = self._max_per_episode
        arnd = episode.arnd
        srnd = episode.srnd
        log = math.log
        exp = math.exp
        magic = _NV_MAGICCONST
        offset = episode.offset

        t = episode.t
        busy_until = episode.busy_until
        count = episode.interruption_count
        while t < busy_until and count < max_per:
            if busy_until - offset > target:
                break
            while True:
                u1 = srnd()
                u2 = 1.0 - srnd()
                z = magic * (u1 - 0.5) / u2
                if z * z / 4.0 <= -log(u2):
                    break
            busy_until += exp(mu + z * sigma)
            count += 1
            t += -log(1.0 - arnd()) / lambd
        else:  # no break: the period closed, or reached the fold bound
            if t < busy_until:
                t = busy_until + -log(1.0 - arnd()) / lambd
            episode.closed = True
        episode.t = t
        episode.busy_until = busy_until
        episode.interruption_count = count

    def _episodes_expo_expo(
        self,
        clock: RandomSource,
        svc_rng: RandomSource,
        horizon: float,
        eager: int,
    ) -> Iterator[Episode]:
        """Busy-period fold with ``expovariate`` inlined for both draws."""
        assert isinstance(self._arrival, Exponential)
        assert isinstance(self._service, Exponential)
        lambd = self._arrival.rate
        slambd = self._service.rate
        max_per = self._max_per_episode
        arnd = clock.raw_random
        srnd = svc_rng.raw_random
        log = math.log

        t = -log(1.0 - arnd()) / lambd
        while t < horizon:
            start = t
            busy_until = t + -log(1.0 - srnd()) / slambd
            count = 1
            t += -log(1.0 - arnd()) / lambd
            while t < busy_until and count < eager:
                busy_until += -log(1.0 - srnd()) / slambd
                count += 1
                t += -log(1.0 - arnd()) / lambd
            if t < busy_until:
                if count < max_per:
                    episode = OpenEpisode(
                        start, busy_until, count, t, self._extend_expo_expo, arnd, srnd
                    )
                    yield episode
                    episode.extend(math.inf)
                    t = episode.t
                    continue
                t = busy_until + -log(1.0 - arnd()) / lambd
            yield DowntimeEpisode(start=start, end=busy_until, interruption_count=count)

    def _extend_expo_expo(self, episode: OpenEpisode, target: float) -> None:
        """:meth:`OpenEpisode.extend` for :meth:`_episodes_expo_expo`."""
        assert isinstance(self._arrival, Exponential)
        assert isinstance(self._service, Exponential)
        lambd = self._arrival.rate
        slambd = self._service.rate
        max_per = self._max_per_episode
        arnd = episode.arnd
        srnd = episode.srnd
        log = math.log
        offset = episode.offset

        t = episode.t
        busy_until = episode.busy_until
        count = episode.interruption_count
        while t < busy_until and count < max_per:
            if busy_until - offset > target:
                break
            busy_until += -log(1.0 - srnd()) / slambd
            count += 1
            t += -log(1.0 - arnd()) / lambd
        else:  # no break: the period closed, or reached the fold bound
            if t < busy_until:
                t = busy_until + -log(1.0 - arnd()) / lambd
            episode.closed = True
        episode.t = t
        episode.busy_until = busy_until
        episode.interruption_count = count

    def __repr__(self) -> str:
        return (
            f"InterruptionProcess(arrival={self._arrival!r}, "
            f"service={self._service!r})"
        )
