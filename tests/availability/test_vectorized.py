"""Bit-identity of the inlined episode folds to the generic one.

``InterruptionProcess`` dispatches the two distribution pairs every shipped
population uses to inlined folds (``_episodes_expo_lognormal`` /
``_episodes_expo_expo``). They promise the *same floats* as the generic
reference fold — goldens depend on it — so every test here asserts exact
``==``, never ``approx``, and also checks the RNG streams stay in
lockstep over long runs. The same folds leave long busy periods open in
``lazy_episodes``; closed piecewise, those must equal ``episodes()``.
"""

import math
from itertools import islice
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.availability import process
from repro.availability.distributions import Deterministic, Exponential, Lognormal
from repro.availability.generator import HostAvailability
from repro.availability.pregen import episode_prefix, host_process, shift_episodes
from repro.availability.process import (
    EAGER_FOLD,
    DowntimeEpisode,
    InterruptionProcess,
    OpenEpisode,
)
from repro.experiments.config import SimulationConfig
from repro.util.rng import RandomSource


def _episode_pairs():
    """(arrival, service) cases covering every specialised dispatch."""
    return [
        # SETI populations: exponential arrivals, lognormal recovery.
        ("expo-lognormal-stable", Exponential(mean=2000.0), Lognormal(mean=300.0, cov=2.0)),
        ("expo-lognormal-unstable", Exponential(mean=10.0), Lognormal(mean=40.0, cov=1.2)),
        # Table 2 emulation: exponential/exponential.
        ("expo-expo-stable", Exponential(mean=900.0), Exponential(mean=120.0)),
        ("expo-expo-unstable", Exponential(mean=5.0), Exponential(mean=25.0)),
        # Generic fallbacks (no specialisation; sanity that dispatch
        # doesn't change them either).
        ("expo-deterministic", Exponential(mean=500.0), Deterministic(value=90.0)),
        ("lognormal-lognormal", Lognormal(mean=800.0, cov=1.5), Lognormal(mean=100.0, cov=1.0)),
    ]


@pytest.mark.parametrize(
    "arrival,service",
    [pytest.param(a, s, id=name) for name, a, s in _episode_pairs()],
)
class TestEpisodeSpecialisationBitIdentity:
    HORIZON = 500_000.0

    def test_specialised_matches_generic(self, arrival, service):
        fast = InterruptionProcess(arrival, service, RandomSource(11).substream("h"))
        ref = InterruptionProcess(arrival, service, RandomSource(11).substream("h"))
        got = list(fast.episodes(self.HORIZON))
        clock = ref._rng.substream("arrivals")
        svc = ref._rng.substream("service")
        want = list(ref._episodes_generic(clock, svc, self.HORIZON))
        assert got == want  # dataclass equality on exact floats

    def test_truncation_cap_identical(self, arrival, service):
        # A tiny per-episode cap forces the truncation branch on every
        # episode; the specialised paths must take it identically.
        fast = InterruptionProcess(
            arrival, service, RandomSource(5).substream("h"), max_interruptions_per_episode=2
        )
        ref = InterruptionProcess(
            arrival, service, RandomSource(5).substream("h"), max_interruptions_per_episode=2
        )
        got = list(fast.episodes(50_000.0))
        clock = ref._rng.substream("arrivals")
        svc = ref._rng.substream("service")
        want = list(ref._episodes_generic(clock, svc, 50_000.0))
        assert got == want

    def test_stream_continuation_identical(self, arrival, service):
        # Long streams: after thousands of episodes the uniform streams of
        # the fast and reference paths are still in lockstep.
        fast = InterruptionProcess(arrival, service, RandomSource(23).substream("h"))
        ref = InterruptionProcess(arrival, service, RandomSource(23).substream("h"))
        fast_iter = fast.episodes(10**9)
        clock = ref._rng.substream("arrivals")
        svc = ref._rng.substream("service")
        ref_iter = ref._episodes_generic(clock, svc, 10**9)
        for _ in range(2000):
            assert next(fast_iter) == next(ref_iter)


def _open_cases():
    """Hosts whose busy periods outgrow ``EAGER_FOLD``: the unstable pairs
    above and a rho >= 1 host of a SETI population."""
    cases = [
        pytest.param(HostAvailability("h", arrival, service), id=name)
        for name, arrival, service in _episode_pairs()
        if name.endswith("-unstable")
    ]
    seti = next(
        host
        for host in SimulationConfig(node_count=24, seed=1).hosts()
        if host.arrival_rate * host.service_mean >= 1.0
    )
    return [*cases, pytest.param(seti, id="seti-rho-ge-1")]


def closed(episodes, offsets, count):
    """The first ``count`` episodes of a lazy stream as closed episodes.

    Each open episode is extended to its start plus each of ``offsets``
    in turn before the stream resumes, so the stream itself closes
    whatever is left (and the last one is closed here).
    """
    pulled = []
    for episode in islice(episodes, count):
        if type(episode) is OpenEpisode:
            for offset in offsets:
                episode.extend(episode.start + offset)
        pulled.append(episode)
    if pulled and type(pulled[-1]) is OpenEpisode:
        pulled[-1].extend(math.inf)
    return [DowntimeEpisode(e.start, e.end, e.interruption_count) for e in pulled]


@pytest.mark.parametrize("eager", [1, 2, EAGER_FOLD])
@pytest.mark.parametrize("host", _open_cases())
class TestOpenEpisodeExactness:
    """Open busy periods, closed piecewise, are the eager stream's periods."""

    COUNT = 4
    offsets = st.lists(st.floats(min_value=0.0, max_value=1e7), max_size=5)

    @settings(max_examples=10, deadline=None)
    @given(offsets=offsets)
    def test_closed_piecewise_equals_episodes(self, host, eager, offsets):
        rng = RandomSource(9)
        want = list(islice(host_process(host, rng).episodes(math.inf), self.COUNT))
        with mock.patch.object(process, "EAGER_FOLD", eager):
            lazy = host_process(host, rng).lazy_episodes(math.inf)
            got = closed(lazy, offsets, self.COUNT)
        assert got == want

    @settings(max_examples=10, deadline=None)
    @given(offsets=offsets)
    def test_shifted_equals_episode_prefix(self, host, eager, offsets):
        rng, burn_in = RandomSource(4), 10_000.0
        horizon = 20 * burn_in
        with mock.patch.object(process, "EAGER_FOLD", eager):
            want = episode_prefix(host, rng, horizon, burn_in=burn_in)
            lazy = host_process(host, rng).lazy_episodes(math.inf)
            got = closed(shift_episodes(lazy, burn_in), offsets, len(want))
        # A period still open at the horizon ends the prefix, cut at a
        # bound past the horizon and at or before its true end.
        *head, last = want
        assert head == got[:-1]
        assert last == got[-1] or (
            last.start == got[-1].start and horizon < last.end <= got[-1].end
        )

    def test_the_stream_opens_periods(self, host, eager):
        with mock.patch.object(process, "EAGER_FOLD", eager):
            lazy = host_process(host, RandomSource(9)).lazy_episodes(math.inf)
            assert any(type(e) is OpenEpisode for e in islice(lazy, self.COUNT))
