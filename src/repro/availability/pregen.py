"""Availability pregeneration: the cluster-build episode kernel.

``build_cluster`` with ``pregen_horizon`` set materialises every host's
episode prefix up to the horizon before the run and hands each prefix to
``FailureInjector.attach_host(episodes=...)``, so the run loop pays no
sampling cost and keeps no suspended generator per host. At 226k hosts
that busy-period fold is ~97% of cluster build time, so
:func:`pregenerate_prefixes` runs it two ways:

* **Scalar, bit-identical** (the default): :func:`episode_prefix` per
  host, the same draws in the same order as the lazy injector path.
  With ``jobs > 1`` host chunks fan out over a ``ProcessPoolExecutor``
  (the ``experiments/parallel.py`` idiom): every host's stream is
  independently keyed by ``(seed, host name)``, and results are
  reassembled **by chunk position**, never completion order, so parallel
  output is byte-identical to serial.
* **Numpy-vectorized, opt-in approximate** (``backend="numpy"``, or
  ``REPRO_AVAIL_BACKEND=numpy``): the busy-period fold becomes a
  Lindley-style vector recursion (:mod:`repro.availability.numpy_backend`).
  Draws come from numpy's PCG64, not CPython's Mersenne Twister, so
  realisations are *statistically* equivalent (same laws; KS-tested) but
  not byte-identical — the backend carries its own golden pins.

The lazy path itself reads burn-in-shifted streams through
:data:`SHIFTED_STREAMS`, which folds each host's burn-in once per process
and seed (:class:`ShiftedStreams`).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.availability.generator import HostAvailability
from repro.availability.numpy_backend import episode_prefix_numpy
from repro.availability.process import DowntimeEpisode
from repro.util.rng import RandomSource, derive_seed

#: Recognised pregeneration sampling backends.
AVAIL_BACKENDS = ("scalar", "numpy")

#: Floor on hosts per multi-process chunk, so pool/pickle overhead stays
#: amortised even when the population is small relative to the job count.
_MIN_CHUNK = 256


def shift_episodes(
    episodes: Iterable[DowntimeEpisode], burn_in: float
) -> Iterator[DowntimeEpisode]:
    """Shift episodes ``burn_in`` seconds earlier, clipping at t=0.

    The stationary burn-in transform — identical to what the lazy
    injector path applies (``FailureInjector`` delegates here).
    """
    for episode in episodes:
        end = episode.end - burn_in
        if end <= 0.0:
            continue
        start = max(episode.start - burn_in, 0.0)
        yield DowntimeEpisode(
            start=start, end=end, interruption_count=episode.interruption_count
        )


def materialise_prefix(
    stream: Iterator[DowntimeEpisode], horizon: float
) -> List[DowntimeEpisode]:
    """Materialise the prefix of episodes starting before ``horizon``.

    The first episode at or past the horizon is kept too (it was pulled to
    detect the boundary, and keeping it preserves the engine's
    ``schedule_at`` sequence allocation exactly). The source stream is
    *closed* in all cases — boundary found, stream exhausted, or an empty
    prefix — so a suspended generator frame (per-host RNG substreams, loop
    locals) is freed immediately rather than retained until GC.
    """
    prefix: List[DowntimeEpisode] = []
    try:
        for episode in stream:
            prefix.append(episode)
            if episode.start >= horizon:
                break
    finally:
        close = getattr(stream, "close", None)
        if close is not None:
            close()
    return prefix


def host_episodes(
    host: HostAvailability, rng: RandomSource
) -> Optional[Iterator[DowntimeEpisode]]:
    """The host's unshifted episode stream under the injector root ``rng``.

    Keyed by ``substream("failures", host.host_id)``, so a realisation
    depends on the root and the host's name alone. None for dedicated hosts.
    """
    process = host.process(rng.substream("failures", host.host_id))
    return None if process is None else process.episodes(float("inf"))


class EpisodeLog:
    """An append-only log of one stream's episodes, read through cursors.

    ``source`` is the one generator that extends the log; each cursor
    replays the log from the start and pulls from ``source`` only past
    its end. Every cursor therefore sees the source's exact sequence,
    however cursors interleave, and closing a cursor leaves the log and
    ``source`` untouched.
    """

    __slots__ = ("episodes", "source")

    def __init__(self, source: Iterator[DowntimeEpisode]) -> None:
        self.episodes: List[DowntimeEpisode] = []
        #: None once the source is exhausted.
        self.source: Optional[Iterator[DowntimeEpisode]] = source

    def cursor(self) -> Iterator[DowntimeEpisode]:
        """A new reader positioned at the first episode."""
        episodes = self.episodes
        i = 0
        while True:
            if i == len(episodes):
                if self.source is None:
                    return
                episode = next(self.source, None)
                if episode is None:
                    self.source = None
                    return
                episodes.append(episode)
            yield episodes[i]
            i += 1


class ShiftedStreams:
    """Burn-in-shifted episode streams, folded once per process.

    A host's stream is a pure function of the injector's root
    ``(seed, path)``, the host id, the exact arrival and service laws
    (:attr:`Distribution.key`) and ``burn_in``, so builds that agree on
    all of them can share one :class:`EpisodeLog`: the second same-seed
    build skips the burn-in fold. Logs of one root are kept at a time; a
    cursor under a new root drops them all, which bounds what is retained
    by one population's streams.
    """

    def __init__(self) -> None:
        self._root: Optional[Tuple[int, Tuple[object, ...]]] = None
        self._logs: Dict[Tuple[object, ...], EpisodeLog] = {}

    def __len__(self) -> int:
        return len(self._logs)

    def clear(self) -> None:
        self._root = None
        self._logs = {}

    def cursor(
        self, host: HostAvailability, rng: RandomSource, burn_in: float
    ) -> Optional[Iterator[DowntimeEpisode]]:
        """A cursor over ``host``'s shifted stream; None for dedicated hosts.

        ``rng`` is the injector's stream root, as in :func:`episode_prefix`.
        """
        if host.arrival is None or host.service is None:
            return None
        root = (rng.seed, rng.path)
        if root != self._root:
            self.clear()
            self._root = root
        key = (host.host_id, host.arrival.key, host.service.key, burn_in)
        log = self._logs.get(key)
        if log is None:
            source = host_episodes(host, rng)
            assert source is not None
            log = self._logs[key] = EpisodeLog(shift_episodes(source, burn_in))
        return log.cursor()


#: The process-wide memo ``FailureInjector.attach_host`` reads every
#: burn-in stream through. Fresh-start streams (no burn-in) stay private:
#: they have no fold to save, and sharing them would only retain history.
SHIFTED_STREAMS = ShiftedStreams()


def episode_prefix(
    host: HostAvailability,
    rng: RandomSource,
    horizon: float,
    burn_in: float = 0.0,
) -> Optional[List[DowntimeEpisode]]:
    """One host's episode prefix, bit-identical to the lazy injector path.

    ``rng`` is the injector's stream root (the one ``attach_host`` passes
    to :func:`host_episodes`). Returns None for dedicated hosts — they
    have no interruption stream at all.
    """
    stream = host_episodes(host, rng)
    if stream is None:
        return None
    if burn_in > 0.0:
        stream = shift_episodes(stream, burn_in)
    return materialise_prefix(stream, horizon)


#: Per host: the materialised prefix, or None for a dedicated host.
Prefixes = List[Optional[List[DowntimeEpisode]]]


def _numpy_prefix(
    host: HostAvailability, rng: RandomSource, horizon: float, burn_in: float
) -> Optional[List[DowntimeEpisode]]:
    """One host's numpy-backend prefix, keyed under a ``"numpy"`` leaf.

    Falls back to the exact scalar path when the distribution pair is
    outside the vectorized family.
    """
    if host.arrival is None or host.service is None:
        return None
    seed = derive_seed(rng.seed, *rng.path, "failures", host.host_id, "numpy")
    prefix = episode_prefix_numpy(host.arrival, host.service, seed, horizon, burn_in=burn_in)
    if prefix is None:
        prefix = episode_prefix(host, rng, horizon, burn_in)
    return prefix


def _pregen_chunk(
    args: Tuple[str, List[HostAvailability], RandomSource, float, float],
) -> Prefixes:
    """Picklable worker entry point: one (backend, host-chunk) unit."""
    backend, hosts, rng, horizon, burn_in = args
    one = _numpy_prefix if backend == "numpy" else episode_prefix
    return [one(host, rng, horizon, burn_in) for host in hosts]


def pregenerate_prefixes(
    hosts: Sequence[HostAvailability],
    rng: RandomSource,
    horizon: float,
    burn_in: float = 0.0,
    jobs: int = 1,
    backend: str = "scalar",
) -> Prefixes:
    """Materialise every host's episode prefix for ``horizon``.

    The result list parallels ``hosts`` (None for dedicated hosts) and —
    with the default scalar backend — is bit-identical to calling
    :func:`episode_prefix` per host, for any ``jobs``: chunking is by
    position and every stream is independently keyed, so no ordering or
    state can leak between chunks. The numpy backend is deterministic
    (keyed by the same seed tree, "numpy" leaf) but draws from PCG64,
    so it is statistically — not byte — equivalent.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be non-negative, got {horizon}")
    if burn_in < 0:
        raise ValueError(f"burn_in must be non-negative, got {burn_in}")
    if backend not in AVAIL_BACKENDS:
        raise ValueError(f"backend must be one of {AVAIL_BACKENDS}, got {backend!r}")
    jobs = max(int(jobs), 1)
    if jobs == 1 or len(hosts) <= _MIN_CHUNK:
        return _pregen_chunk((backend, list(hosts), rng, horizon, burn_in))

    from concurrent.futures import ProcessPoolExecutor

    chunk_size = max((len(hosts) + jobs - 1) // jobs, _MIN_CHUNK)
    specs = [
        (backend, list(hosts[i : i + chunk_size]), rng, horizon, burn_in)
        for i in range(0, len(hosts), chunk_size)
    ]
    prefixes: Prefixes = []
    with ProcessPoolExecutor(max_workers=min(jobs, len(specs))) as pool:
        # Reassembled by chunk position (map preserves input order),
        # never completion order — parallel == serial, byte for byte.
        for chunk in pool.map(_pregen_chunk, specs):
            prefixes.extend(chunk)
    return prefixes


__all__ = [
    "AVAIL_BACKENDS",
    "EpisodeLog",
    "Prefixes",
    "SHIFTED_STREAMS",
    "ShiftedStreams",
    "episode_prefix",
    "host_episodes",
    "materialise_prefix",
    "pregenerate_prefixes",
    "shift_episodes",
]
