"""Tests for the opt-in numpy episode backend.

The backend is *not* byte-compatible with the scalar kernel (PCG64 vs
Mersenne Twister), so it carries its own golden pins — regenerating them
after an intentional algorithm change is expected; silent drift is not —
plus structural invariants and a statistical-equivalence (KS) check
against the scalar kernel.
"""

import math

import pytest

np = pytest.importorskip("numpy")

from repro.availability.distributions import Deterministic, Exponential, Lognormal
from repro.availability.generator import HostAvailability
from repro.availability.numpy_backend import (
    DEFAULT_MAX_PER_EPISODE,
    FOLD_CAP,
    available,
    episode_prefix_numpy,
)
from repro.availability.pregen import episode_prefix, pregenerate_prefixes
from repro.util.rng import RandomSource, derive_seed

ARRIVAL = Exponential(mean=3600.0)


def prefix(seed, horizon, service, burn_in=0.0, max_per=DEFAULT_MAX_PER_EPISODE):
    eps = episode_prefix_numpy(
        ARRIVAL, service, seed, horizon, burn_in=burn_in, max_per=max_per
    )
    assert eps is not None
    return eps


class TestGoldenPins:
    """Exact realisations for pinned seeds (this backend's own goldens)."""

    def test_lognormal_service(self):
        eps = prefix(424242, 40_000.0, Lognormal(mean=600.0, cov=1.5))
        assert len(eps) == 10
        got = [(e.start, e.end, e.interruption_count) for e in eps[:4]]
        assert got == [
            (1604.7070511235725, 2174.6749186461457, 1),
            (2208.6222024997755, 2679.6811409482343, 1),
            (2710.184115463883, 2976.5923227298417, 1),
            (5352.182251494132, 7697.4487964840755, 3),
        ]

    def test_exponential_service_with_burn_in(self):
        eps = prefix(31337, 40_000.0, Exponential(mean=900.0), burn_in=1000.0)
        assert len(eps) == 12
        got = [(e.start, e.end, e.interruption_count) for e in eps[:3]]
        assert got == [
            (2862.153080860743, 3883.4411402125825, 1),
            (10193.362994152689, 11482.278680581552, 2),
            (14928.417954584475, 15016.010186536289, 1),
        ]

    def test_deterministic_service(self):
        eps = prefix(777, 30_000.0, Deterministic(value=500.0))
        assert len(eps) == 6
        got = [(e.start, e.end, e.interruption_count) for e in eps[:3]]
        assert got == [
            (8415.928103373239, 9415.928103373239, 2),
            (18443.89963139544, 18943.89963139544, 1),
            (21515.97848966059, 23015.97848966059, 3),
        ]


class TestSeedTree:
    def test_pregen_seeds_each_host_from_its_failures_path(self):
        # Each host's PCG64 seed is derive_seed(root, *path, "failures",
        # host, "numpy"). The pins fix the realisations, so any change to
        # that key path shows here.
        hosts = [
            HostAvailability(
                host_id=name, arrival=ARRIVAL, service=Lognormal(mean=600.0, cov=1.5)
            )
            for name in ("node-00000", "node-00001")
        ]
        rng = RandomSource(7).substream("cell", 3)
        first, second = pregenerate_prefixes(
            hosts, rng, 40_000.0, burn_in=500.0, backend="numpy"
        )
        for host, got in zip(hosts, (first, second), strict=True):
            seed = derive_seed(7, "cell", 3, "failures", host.host_id, "numpy")
            assert got == episode_prefix_numpy(
                host.arrival, host.service, seed, 40_000.0, burn_in=500.0
            )
        assert (len(first), len(second)) == (11, 14)
        assert [(e.start, e.end, e.interruption_count) for e in first[:2]] == [
            (2692.675000203688, 3001.198223433882, 1),
            (11337.92378586893, 11464.491773578955, 1),
        ]
        assert [(e.start, e.end, e.interruption_count) for e in second[:2]] == [
            (1045.495131684485, 1445.4511242451945, 1),
            (1874.9538930683666, 2056.9330491490305, 1),
        ]


class TestDeterminism:
    def test_same_seed_same_bytes(self):
        svc = Lognormal(mean=600.0, cov=2.0)
        a = prefix(5, 100_000.0, svc)
        b = prefix(5, 100_000.0, svc)
        assert a == b

    def test_different_seeds_differ(self):
        svc = Lognormal(mean=600.0, cov=2.0)
        assert prefix(5, 100_000.0, svc) != prefix(6, 100_000.0, svc)


class TestStructure:
    @pytest.mark.parametrize(
        "service",
        [
            Lognormal(mean=600.0, cov=1.5),
            Exponential(mean=900.0),
            Deterministic(value=500.0),
        ],
    )
    def test_episodes_disjoint_ordered_positive(self, service):
        horizon = 200_000.0
        eps = prefix(11, horizon, service)
        prev_end = -1.0
        for e in eps:
            assert e.end > e.start >= 0.0
            assert e.start >= prev_end
            assert e.interruption_count >= 1
            prev_end = e.end
        # Prefix contract: everything but the boundary episode starts
        # before the horizon; the boundary episode starts at/past it.
        assert eps[-1].start >= horizon
        for e in eps[:-1]:
            assert e.start < horizon

    def test_unsupported_arrival_returns_none(self):
        assert (
            episode_prefix_numpy(
                Deterministic(value=100.0), Exponential(mean=1.0), 1, 100.0
            )
            is None
        )

    def test_truncation_cap_respected(self):
        # An unstable host (rho >> 1): every episode folds to the cap.
        arr = Exponential(mean=100.0)
        svc = Exponential(mean=1000.0)
        eps = episode_prefix_numpy(arr, svc, 99, 500_000.0, max_per=200)
        assert eps is not None
        assert all(e.interruption_count <= 200 for e in eps)
        assert any(e.interruption_count == 200 for e in eps)

    def test_burn_in_shifts_and_clips(self):
        # Same raw horizon (horizon + burn_in) on both sides, so batch
        # sizes — and with them the draw stream — line up exactly.
        svc = Exponential(mean=900.0)
        raw = prefix(31337, 41_000.0, svc)
        shifted = prefix(31337, 40_000.0, svc, burn_in=1000.0)
        # Same draw stream: each shifted episode is a raw episode - 1000,
        # clipped at zero.
        raw_shifted = [
            (max(e.start - 1000.0, 0.0), e.end - 1000.0, e.interruption_count)
            for e in raw
            if e.end - 1000.0 > 0.0
        ]
        got = [(e.start, e.end, e.interruption_count) for e in shifted]
        assert got == raw_shifted[: len(got)]

    def test_fold_cap_tail_aggregation(self):
        # With max_per far above FOLD_CAP, a truncated episode's duration
        # includes one aggregate tail draw: expect roughly max_per * mean
        # of service time per truncated episode.
        arr = Exponential(mean=10.0)
        svc = Exponential(mean=100.0)
        eps = episode_prefix_numpy(arr, svc, 17, 1.0)
        assert eps is not None
        truncated = [e for e in eps if e.interruption_count == DEFAULT_MAX_PER_EPISODE]
        assert truncated, "an unstable host must truncate"
        for e in truncated:
            expected = DEFAULT_MAX_PER_EPISODE * svc.mean
            assert e.duration == pytest.approx(expected, rel=0.25)
        assert DEFAULT_MAX_PER_EPISODE > FOLD_CAP


class TestAvailabilityGate:
    def test_available_is_true_here(self):
        assert available()


def _ks_statistic(xs, ys):
    """Two-sample Kolmogorov-Smirnov statistic, no scipy needed."""
    xs, ys = sorted(xs), sorted(ys)
    i = j = 0
    d = 0.0
    while i < len(xs) and j < len(ys):
        if xs[i] <= ys[j]:
            i += 1
        else:
            j += 1
        d = max(d, abs(i / len(xs) - j / len(ys)))
    return d


class TestStatisticalEquivalence:
    """KS test vs the scalar kernel on a stable host's realisations."""

    HOST = HostAvailability(
        host_id="ks-host",
        arrival=Exponential(mean=2000.0),
        service=Lognormal(mean=400.0, cov=1.5),
        group="test",
    )

    def _samples(self):
        horizon = 3_000_000.0
        scalar = episode_prefix(self.HOST, RandomSource(123), horizon)
        [vector] = pregenerate_prefixes([self.HOST], RandomSource(123), horizon, backend="numpy")
        return scalar, vector

    def test_durations_and_gaps_same_law(self):
        scalar, vector = self._samples()
        # Both series are sizeable — same horizon, same rates.
        assert min(len(scalar), len(vector)) > 400
        alpha_coeff = 1.95  # c(alpha) for alpha ~= 0.001
        for attr in ("duration",):
            xs = [getattr(e, attr) for e in scalar]
            ys = [getattr(e, attr) for e in vector]
            d = _ks_statistic(xs, ys)
            bound = alpha_coeff * math.sqrt((len(xs) + len(ys)) / (len(xs) * len(ys)))
            assert d < bound, f"{attr}: D={d:.4f} bound={bound:.4f}"
        gaps_x = [
            b.start - a.end for a, b in zip(scalar, scalar[1:], strict=False)
        ]
        gaps_y = [
            b.start - a.end for a, b in zip(vector, vector[1:], strict=False)
        ]
        d = _ks_statistic(gaps_x, gaps_y)
        bound = alpha_coeff * math.sqrt(
            (len(gaps_x) + len(gaps_y)) / (len(gaps_x) * len(gaps_y))
        )
        assert d < bound, f"gaps: D={d:.4f} bound={bound:.4f}"

    def test_episode_counts_close(self):
        scalar, vector = self._samples()
        assert len(vector) == pytest.approx(len(scalar), rel=0.15)
