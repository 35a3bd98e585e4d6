"""Tests for episode pregeneration (repro.availability.pregen).

The load-bearing property is *bit-identity*: the scalar path — per-host
prefixes, optional multi-process fan-out — must deliver exactly the
episodes the lazy per-host path delivers, because the golden determinism
suite pins the default build byte-for-byte.
"""

import pytest

from repro.availability.generator import build_group_hosts
from repro.availability.pregen import (
    AVAIL_BACKENDS,
    episode_prefix,
    materialise_prefix,
    pregenerate_prefixes,
    shift_episodes,
)
from repro.util.rng import RandomSource
from repro.util.validation import env_override


def hosts_for(n, seed_ratio=0.8):
    return build_group_hosts(n, seed_ratio, service_distribution="lognormal")


def lazy_prefix(host, rng, horizon, burn_in=0.0):
    """The injector's path with every period closed: process, shift, materialise."""
    process = host.process(rng.substream("failures", host.host_id))
    if process is None:
        return None
    stream = process.episodes(float("inf"))
    if burn_in > 0.0:
        stream = shift_episodes(stream, burn_in)
    return materialise_prefix(stream, horizon)


class TestScalarBitIdentity:
    def test_bulk_equals_lazy_per_host(self):
        hosts = hosts_for(40)
        horizon, burn_in = 50_000.0, 300.0
        prefixes = pregenerate_prefixes(hosts, RandomSource(3), horizon, burn_in=burn_in)
        for host, prefix in zip(hosts, prefixes, strict=True):
            expected = lazy_prefix(host, RandomSource(3), horizon, burn_in)
            assert prefix == expected, host.host_id

    def test_episode_prefix_matches_injector_path(self):
        hosts = hosts_for(10)
        for host in hosts:
            got = episode_prefix(host, RandomSource(5), 20_000.0, burn_in=100.0)
            expected = lazy_prefix(host, RandomSource(5), 20_000.0, 100.0)
            assert got == expected

    def test_dedicated_hosts_get_none(self):
        hosts = hosts_for(10, seed_ratio=0.5)
        prefixes = pregenerate_prefixes(hosts, RandomSource(1), 1000.0)
        for host, prefix in zip(hosts, prefixes, strict=True):
            if host.is_dedicated:
                assert prefix is None
            else:
                assert prefix  # prefix always holds the boundary episode

    def test_prefix_contract_boundary_episode(self):
        hosts = [h for h in hosts_for(6) if not h.is_dedicated]
        horizon = 5_000.0
        for prefix in pregenerate_prefixes(hosts, RandomSource(2), horizon):
            assert prefix[-1].start >= horizon
            for episode in prefix[:-1]:
                assert episode.start < horizon


class TestParallelFanOut:
    def test_jobs_do_not_change_bytes(self, pools):
        # Enough hosts to exceed the minimum chunk size and engage the pool.
        hosts = hosts_for(600)
        horizon = 10_000.0
        serial = pregenerate_prefixes(hosts, RandomSource(4), horizon, jobs=1)
        parallel = pregenerate_prefixes(hosts, RandomSource(4), horizon, jobs=3)
        assert pools == [3]
        assert serial == parallel

    def test_small_populations_stay_in_process(self, pools):
        hosts = hosts_for(8)
        result = pregenerate_prefixes(hosts, RandomSource(4), 1000.0, jobs=4)
        expected = pregenerate_prefixes(hosts, RandomSource(4), 1000.0, jobs=1)
        assert pools == []
        assert result == expected


class TestKnobResolution:
    def test_backend_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_AVAIL_BACKEND", "numpy")
        assert env_override("REPRO_AVAIL_BACKEND", "scalar", AVAIL_BACKENDS) == "numpy"
        monkeypatch.setenv("REPRO_AVAIL_BACKEND", "")
        assert env_override("REPRO_AVAIL_BACKEND", "scalar", AVAIL_BACKENDS) == "scalar"

    def test_unknown_backend_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_AVAIL_BACKEND", "cuda")
        with pytest.raises(ValueError, match="REPRO_AVAIL_BACKEND"):
            env_override("REPRO_AVAIL_BACKEND", "scalar", AVAIL_BACKENDS)
        monkeypatch.delenv("REPRO_AVAIL_BACKEND")
        with pytest.raises(ValueError):
            pregenerate_prefixes(hosts_for(2), RandomSource(0), 10.0, backend="cuda")

    def test_jobs_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_PREGEN_JOBS", "7")
        assert env_override("REPRO_PREGEN_JOBS", 1) == 7
        monkeypatch.setenv("REPRO_PREGEN_JOBS", "not-a-number")
        with pytest.raises(ValueError, match="REPRO_PREGEN_JOBS"):
            env_override("REPRO_PREGEN_JOBS", 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            pregenerate_prefixes(hosts_for(2), RandomSource(0), -1.0)
        # Non-positive job counts are clamped to in-process execution.
        clamped = pregenerate_prefixes(hosts_for(2), RandomSource(0), 10.0, jobs=0)
        assert clamped == pregenerate_prefixes(hosts_for(2), RandomSource(0), 10.0)
