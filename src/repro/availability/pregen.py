"""Per-host episode streams: what the failure injector is handed.

``build_cluster`` picks each host's stream here and hands it to
``FailureInjector.attach_host``. :func:`host_stream` is the lazy stream
(the default); with ``ClusterConfig.pregen_horizon`` set,
:func:`episode_prefix` materialises it up to the horizon instead, so the
run loop pays no sampling cost and keeps no suspended generator per host.

Both read the same draws in the same order, with long busy periods left
open (:meth:`~repro.availability.process.InterruptionProcess.lazy_episodes`)
and a burn-in folded only as far as it reaches (:func:`shift_episodes`).
A prefix folds an open period only until it closes or passes the horizon
(:func:`~repro.availability.process.cut_at_horizon`); one still open
there ends the prefix, closed at the bound its fold reached. So a ρ ≥ 1
host's period is folded through the burn-in and the horizon only, not
to the fold bound, and within the horizon the prefix fires the lazy
stream's transitions.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, List, Optional, TypeVar

from repro.availability.generator import HostAvailability
from repro.availability.process import (
    DowntimeEpisode,
    Episode,
    InterruptionProcess,
    OpenEpisode,
    cut_at_horizon,
)
from repro.util.rng import RandomSource

#: A stream's element type: closed episodes, or open and closed ones.
_E = TypeVar("_E", DowntimeEpisode, Episode)


def shift_episodes(episodes: Iterable[_E], burn_in: float) -> Iterator[_E]:
    """Shift episodes ``burn_in`` seconds earlier, clipping at t=0.

    The stationary burn-in transform of :func:`host_stream`. An open
    episode is first extended to ``burn_in``. If it closes, it is shifted
    like any closed one. If it is still open, it ends after ``burn_in``:
    it is re-based in place (``start`` clipped the same way, ``offset``
    set to ``burn_in``) and yielded open. Its stream reads only the fold
    state back.
    """
    for episode in episodes:
        if type(episode) is OpenEpisode and not episode.extend(burn_in):
            episode.start = max(episode.start - burn_in, 0.0)
            episode.offset = burn_in
            yield episode
            continue
        end = episode.end - burn_in
        if end <= 0.0:
            continue
        start = max(episode.start - burn_in, 0.0)
        yield DowntimeEpisode(
            start=start, end=end, interruption_count=episode.interruption_count
        )


def materialise_prefix(stream: Iterator[Episode], horizon: float) -> List[DowntimeEpisode]:
    """Materialise the prefix of episodes starting before ``horizon``.

    Open episodes are closed or cut by
    :func:`~repro.availability.process.cut_at_horizon`. Unless a cut
    period ends it, the prefix keeps the first episode at or past the
    horizon too (it was pulled to detect the boundary, and keeping it
    preserves the engine's ``schedule_at`` sequence allocation exactly).
    The source stream is *closed* in all cases — boundary found, stream
    exhausted, or an empty prefix — so a suspended generator frame
    (per-host RNG substreams, loop locals) is freed immediately rather
    than retained until GC.
    """
    prefix: List[DowntimeEpisode] = []
    try:
        for episode in cut_at_horizon(stream, horizon):
            prefix.append(episode)
            if episode.start >= horizon:
                break
    finally:
        close = getattr(stream, "close", None)
        if close is not None:
            close()
    return prefix


def host_process(
    host: HostAvailability, rng: RandomSource
) -> Optional[InterruptionProcess]:
    """The host's interruption process under the cluster root ``rng``.

    Keyed by ``substream("failures", host.host_id)``, so a realisation
    depends on the root and the host's name alone. None for dedicated
    hosts.
    """
    return host.process(rng.substream("failures", host.host_id))


def host_stream(
    host: HostAvailability, rng: RandomSource, burn_in: float = 0.0
) -> Optional[Iterator[Episode]]:
    """The host's open episode stream, shifted ``burn_in`` seconds.

    What a lazily built cluster hands the injector (see
    :func:`host_process`). None for dedicated hosts.

    ``burn_in`` shifts the process that far into its own past, so the run
    starts in (approximately) stationary state, like a random window cut
    out of a long trace: the host may already be down at t=0, with the
    right residual downtime. 0 starts the host up.
    """
    process = host_process(host, rng)
    if process is None:
        return None
    stream = process.lazy_episodes(math.inf)
    return shift_episodes(stream, burn_in) if burn_in > 0.0 else stream


def episode_prefix(
    host: HostAvailability,
    rng: RandomSource,
    horizon: float,
    burn_in: float = 0.0,
) -> Optional[List[DowntimeEpisode]]:
    """One host's episode prefix: :func:`host_stream`'s, up to ``horizon``.

    ``rng`` is the cluster's root stream. Returns None for dedicated
    hosts — they have no interruption stream at all.
    """
    stream = host_stream(host, rng, burn_in)
    return None if stream is None else materialise_prefix(stream, horizon)


__all__ = [
    "episode_prefix",
    "host_process",
    "host_stream",
    "materialise_prefix",
    "shift_episodes",
]
