"""Tests for episode pregeneration (repro.availability.pregen).

The load-bearing property is *bit-identity*: the scalar path — per-host
prefixes, optional multi-process fan-out — must deliver exactly the
episodes the lazy per-host path delivers, because the golden determinism
suite pins the default build byte-for-byte.
"""

from itertools import islice

import pytest

from repro.availability.distributions import Exponential, Lognormal
from repro.availability.generator import HostAvailability, build_group_hosts
from repro.availability.pregen import (
    AVAIL_BACKENDS,
    EpisodeLog,
    ShiftedStreams,
    episode_prefix,
    materialise_prefix,
    pregenerate_prefixes,
    shift_episodes,
)
from repro.availability.process import DowntimeEpisode
from repro.util.rng import RandomSource
from repro.util.validation import env_override


def hosts_for(n, seed_ratio=0.8):
    return build_group_hosts(n, seed_ratio, service_distribution="lognormal")


def lazy_prefix(host, rng, horizon, burn_in=0.0):
    """The injector's own path: lazy process, shift, materialise."""
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


def private_stream(host, rng, burn_in, count):
    """The first ``count`` episodes of the host's unshared shifted stream."""
    process = host.process(rng.substream("failures", host.host_id))
    return list(islice(shift_episodes(process.episodes(float("inf")), burn_in), count))


class TestEpisodeLog:
    def test_cursor_replays_then_extends(self):
        episodes = [DowntimeEpisode(float(i), i + 0.5, 1) for i in range(5)]
        log = EpisodeLog(iter(episodes))
        first = log.cursor()
        assert [next(first), next(first)] == episodes[:2]
        assert list(log.cursor()) == episodes
        assert list(first) == episodes[2:]
        assert log.source is None

    def test_closing_a_cursor_leaves_the_source_open(self):
        state = {"closed": False}

        def source():
            try:
                for i in range(10):
                    yield DowntimeEpisode(float(i), i + 0.5, 1)
            except GeneratorExit:
                state["closed"] = True
                raise

        log = EpisodeLog(source())
        other = log.cursor()
        next(other)
        assert len(materialise_prefix(log.cursor(), 3.0)) == 4
        assert not state["closed"]
        assert [e.start for e in other] == [float(i) for i in range(1, 10)]


class TestShiftedStreams:
    BURN_IN = 300.0
    COUNT = 40

    def host(self, host_id="node-00000", mean=4.0):
        return HostAvailability(
            host_id=host_id,
            arrival=Exponential(mean=10.0),
            service=Lognormal(mean=mean, cov=1.0),
        )

    def test_late_cursor_sees_the_private_stream(self):
        memo, host, rng = ShiftedStreams(), self.host(), RandomSource(3)
        expected = private_stream(host, rng, self.BURN_IN, self.COUNT)
        early = memo.cursor(host, rng, self.BURN_IN)
        k = 7
        assert list(islice(early, k)) == expected[:k]
        late = memo.cursor(host, rng, self.BURN_IN)
        assert list(islice(late, self.COUNT)) == expected
        assert list(islice(early, self.COUNT - k)) == expected[k:]

    def test_interleaved_cursors_past_the_log_end(self):
        memo, host, rng = ShiftedStreams(), self.host(), RandomSource(3)
        expected = private_stream(host, rng, self.BURN_IN, self.COUNT)
        a = memo.cursor(host, rng, self.BURN_IN)
        b = memo.cursor(host, rng, self.BURN_IN)
        seen_a, seen_b = [], []
        for i in range(self.COUNT):
            # Alternate which cursor pulls a fresh episode from the source.
            order = (a, b) if i % 2 else (b, a)
            for cursor in order:
                (seen_a if cursor is a else seen_b).append(next(cursor))
        assert seen_a == expected
        assert seen_b == expected

    def test_materialised_cursor_leaves_others_intact(self, episode_calls):
        memo, host, rng = ShiftedStreams(), self.host(), RandomSource(3)
        expected = private_stream(host, rng, self.BURN_IN, self.COUNT)
        episode_calls.clear()
        reader = memo.cursor(host, rng, self.BURN_IN)
        assert list(islice(reader, 3)) == expected[:3]
        prefix = materialise_prefix(memo.cursor(host, rng, self.BURN_IN), 100.0)
        assert prefix == expected[: len(prefix)]
        assert list(islice(reader, self.COUNT - 3)) == expected[3:]
        assert list(islice(memo.cursor(host, rng, self.BURN_IN), self.COUNT)) == expected
        assert len(episode_calls) == 1

    @pytest.mark.parametrize(
        "variant",
        ["seed", "rng_path", "burn_in", "host_id", "param_past_6_digits"],
    )
    def test_each_key_part_separates_streams(self, variant):
        memo = ShiftedStreams()
        base = (self.host(), RandomSource(3), self.BURN_IN)
        host, rng, burn_in = base
        if variant == "seed":
            rng = RandomSource(4)
        elif variant == "rng_path":
            rng = RandomSource(3).substream("elsewhere")
        elif variant == "burn_in":
            burn_in = 2 * self.BURN_IN
        elif variant == "host_id":
            host = self.host(host_id="node-00001")
        else:
            host = self.host(mean=4.000001)
            assert repr(host.service) == repr(base[0].service)
        first = list(islice(memo.cursor(*base), self.COUNT))
        second = list(islice(memo.cursor(host, rng, burn_in), self.COUNT))
        assert first == private_stream(*base, self.COUNT)
        assert second == private_stream(host, rng, burn_in, self.COUNT)
        assert first != second
        same_root = variant not in ("seed", "rng_path")
        assert len(memo) == (2 if same_root else 1)

    def test_new_root_drops_old_logs(self, episode_calls):
        memo, host = ShiftedStreams(), self.host()
        next(memo.cursor(host, RandomSource(1), self.BURN_IN))
        next(memo.cursor(self.host("node-00001"), RandomSource(1), self.BURN_IN))
        assert len(memo) == 2
        next(memo.cursor(host, RandomSource(2), self.BURN_IN))
        assert len(memo) == 1
        next(memo.cursor(host, RandomSource(1), self.BURN_IN))
        assert len(episode_calls) == 4

    def test_dedicated_host_has_no_stream(self):
        memo = ShiftedStreams()
        assert memo.cursor(HostAvailability("d"), RandomSource(1), self.BURN_IN) is None
        assert len(memo) == 0
