"""Tests for per-host episode prefixes (repro.availability.pregen).

The load-bearing property is *bit-identity*: within the horizon, per-host
prefixes must deliver exactly the episodes the lazy per-host path
delivers, because the golden determinism suite pins the default build
byte-for-byte. A busy period still open at the horizon ends the prefix,
cut at a bound past the horizon.
"""

import pytest

from repro.availability import process
from repro.availability.generator import build_group_hosts
from repro.availability.pregen import episode_prefix, materialise_prefix, shift_episodes
from repro.experiments.config import SimulationConfig
from repro.runtime.cluster import ClusterConfig, build_cluster
from repro.simulator.failures import FailureInjector
from repro.util.rng import RandomSource


def hosts_for(n, seed_ratio=0.8):
    return build_group_hosts(n, seed_ratio, service_distribution="lognormal")


def closed_prefix(host, rng, horizon, burn_in=0.0):
    """The prefix of the closed stream, every period folded to its end."""
    proc = host.process(rng.substream("failures", host.host_id))
    if proc is None:
        return None
    stream = proc.episodes(float("inf"))
    if burn_in > 0.0:
        stream = shift_episodes(stream, burn_in)
    return materialise_prefix(stream, horizon)


def assert_cut_from(prefix, full, horizon):
    """Assert ``prefix`` is the closed prefix ``full`` up to ``horizon``.

    Either they are equal, or ``prefix`` ends at a busy period cut at a
    bound past the horizon: the closed stream's period, with the same
    start and an end at or before the true one. Every earlier episode is
    the closed stream's. Returns whether ``prefix`` is cut.
    """
    if prefix == full:
        return False
    *head, last = prefix
    assert head == full[: len(head)]
    ref = full[len(head)]
    assert last.start == ref.start
    assert horizon < last.end <= ref.end
    assert last.interruption_count < ref.interruption_count
    return True


def attached_prefixes(monkeypatch, hosts, **config):
    """The episodes a pregen build hands the injector, per host in order."""
    attached = []
    attach_host = FailureInjector.attach_host

    def spy(injector, node_id, episodes):
        episodes = None if episodes is None else list(episodes)
        attached.append(episodes)
        attach_host(injector, node_id, episodes)

    monkeypatch.setattr(FailureInjector, "attach_host", spy)
    build_cluster(hosts, ClusterConfig(detection="oracle", **config))
    return attached


class TestScalarBitIdentity:
    def test_bulk_equals_lazy_per_host(self, monkeypatch):
        hosts = hosts_for(40)
        horizon, burn_in = 50_000.0, 300.0
        prefixes = attached_prefixes(
            monkeypatch, hosts, seed=3, pregen_horizon=horizon, stationary_burn_in=burn_in
        )
        cut = 0
        for host, prefix in zip(hosts, prefixes, strict=True):
            expected = closed_prefix(host, RandomSource(3), horizon, burn_in)
            if expected is None:
                assert prefix is None
            else:
                cut += assert_cut_from(prefix, expected, horizon)
        assert cut  # node-00001 is still down at the horizon

    def test_episode_prefix_matches_injector_path(self):
        hosts = hosts_for(10)
        for host in hosts:
            got = episode_prefix(host, RandomSource(5), 20_000.0, burn_in=100.0)
            expected = closed_prefix(host, RandomSource(5), 20_000.0, 100.0)
            if expected is None:
                assert got is None
            else:
                assert_cut_from(got, expected, 20_000.0)

    def test_dedicated_hosts_get_none(self):
        hosts = hosts_for(10, seed_ratio=0.5)
        for host in hosts:
            prefix = episode_prefix(host, RandomSource(1), 1000.0)
            if host.is_dedicated:
                assert prefix is None
            else:
                assert prefix  # a boundary or cut episode ends every prefix

    def test_prefix_contract_boundary_episode(self):
        hosts = [h for h in hosts_for(6) if not h.is_dedicated]
        horizon = 5_000.0
        for host in hosts:
            prefix = episode_prefix(host, RandomSource(2), horizon)
            assert prefix[-1].start >= horizon
            for episode in prefix[:-1]:
                assert episode.start < horizon


class TestKnobResolution:
    def test_validation(self):
        # The horizon and the burn-in are outside input: the config that
        # carries them rejects a bad value before any prefix is drawn.
        with pytest.raises(ValueError):
            ClusterConfig(pregen_horizon=-1.0)
        for horizon in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                ClusterConfig(pregen_horizon=horizon)
        for burn_in in (-1.0, float("nan")):
            with pytest.raises(ValueError, match="stationary_burn_in"):
                ClusterConfig(pregen_horizon=10.0, stationary_burn_in=burn_in)


def unstable_seti_hosts():
    """The rho >= 1 hosts of a 24-host SETI population, and its burn-in."""
    config = SimulationConfig(node_count=24, seed=1)
    hosts = [h for h in config.hosts() if h.arrival_rate * h.service_mean >= 1.0]
    return hosts, config.cluster_config().stationary_burn_in


class TestCutAtHorizon:
    """A busy period still open at the horizon ends the prefix, cut there."""

    HORIZON = 86_400.0

    def test_cut_prefix_is_the_closed_prefix_up_to_the_horizon(self):
        hosts, burn_in = unstable_seti_hosts()
        cut = 0
        for host in hosts:
            prefix = episode_prefix(host, RandomSource(3), self.HORIZON, burn_in)
            full = closed_prefix(host, RandomSource(3), self.HORIZON, burn_in)
            if assert_cut_from(prefix, full, self.HORIZON):
                cut += 1
                assert prefix[-1].start < self.HORIZON
        assert cut

    def test_folds_only_to_the_horizon(self, monkeypatch):
        # The closed stream folds this host's burn-in period to the 10,000
        # interruption bound; a one-day prefix needs a fraction of it.
        hosts, burn_in = unstable_seti_hosts()
        pulled = []

        def spy(real):
            def spied(proc, horizon):
                for episode in real(proc, horizon):
                    pulled.append(episode)
                    yield episode

            return spied

        for name in ("episodes", "lazy_episodes"):
            real = getattr(process.InterruptionProcess, name)
            monkeypatch.setattr(process.InterruptionProcess, name, spy(real))
        prefix = episode_prefix(hosts[0], RandomSource(3), self.HORIZON, burn_in)
        assert prefix[-1].end > self.HORIZON
        folded = sum(episode.interruption_count for episode in pulled)
        assert 0 < folded < 2_000
