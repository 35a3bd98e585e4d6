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

The lazy injector path reads the same streams with long busy periods
left open (:meth:`~repro.availability.process.InterruptionProcess.lazy_episodes`),
so a host's burn-in folds only as far as the run reaches
(:func:`shift_episodes`).
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, TypeVar

from repro.availability.generator import HostAvailability
from repro.availability.numpy_backend import episode_prefix_numpy
from repro.availability.process import (
    DowntimeEpisode,
    Episode,
    InterruptionProcess,
    OpenEpisode,
)
from repro.util.rng import RandomSource, derive_seed

#: Recognised pregeneration sampling backends.
AVAIL_BACKENDS = ("scalar", "numpy")

#: Floor on hosts per multi-process chunk, so pool/pickle overhead stays
#: amortised even when the population is small relative to the job count.
_MIN_CHUNK = 256


#: A stream's element type: closed episodes, or open and closed ones.
_E = TypeVar("_E", DowntimeEpisode, Episode)


def shift_episodes(episodes: Iterable[_E], burn_in: float) -> Iterator[_E]:
    """Shift episodes ``burn_in`` seconds earlier, clipping at t=0.

    The stationary burn-in transform, applied by both the lazy injector
    path and :func:`episode_prefix`. An open episode is first extended
    to ``burn_in``. If it closes, it is shifted like any closed one. If
    it is still open, it ends after ``burn_in``: it is re-based in place
    (``start`` clipped the same way, ``offset`` set to ``burn_in``) and
    yielded open. Its stream reads only the fold state back.
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


def host_process(
    host: HostAvailability, rng: RandomSource
) -> Optional[InterruptionProcess]:
    """The host's interruption process under the injector root ``rng``.

    Keyed by ``substream("failures", host.host_id)``, so a realisation
    depends on the root and the host's name alone. None for dedicated
    hosts.
    """
    return host.process(rng.substream("failures", host.host_id))


def host_episodes(
    host: HostAvailability, rng: RandomSource
) -> Optional[Iterator[DowntimeEpisode]]:
    """The host's unshifted, closed episode stream (see :func:`host_process`)."""
    process = host_process(host, rng)
    return None if process is None else process.episodes(float("inf"))


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
    "Prefixes",
    "episode_prefix",
    "host_episodes",
    "host_process",
    "materialise_prefix",
    "pregenerate_prefixes",
    "shift_episodes",
]
