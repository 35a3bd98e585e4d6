"""Tests for the HDFS client shell (copyFromLocal / cp / adapt)."""

import pytest

from repro.availability.estimators import AvailabilityEstimate
from repro.core.placement import NaivePlacement
from repro.core.predictor import PerformancePredictor
from repro.hdfs.client import DfsClient
from repro.hdfs.datanode import DataNode
from repro.hdfs.namenode import NameNode
from repro.util.rng import RandomSource
from repro.util.units import MB


def make_client(n=6, heterogeneous=True):
    predictor = PerformancePredictor()
    nn = NameNode(predictor)
    for i in range(n):
        nn.register_datanode(DataNode(f"n{i}"))
        if heterogeneous and i >= n // 2:
            predictor.pin_oracle(
                f"n{i}", AvailabilityEstimate(arrival_rate=0.1, recovery_mean=8.0, observations=1)
            )
        else:
            predictor.pin_oracle(
                f"n{i}", AvailabilityEstimate(arrival_rate=0.0, recovery_mean=0.0, observations=1)
            )
    return DfsClient(nn, RandomSource(5), default_block_size=64 * MB, default_gamma=12.0)


class TestCopyFromLocal:
    def test_by_num_blocks(self):
        client = make_client()
        f = client.copy_from_local("f", num_blocks=10, replication=1)
        assert f.num_blocks == 10
        assert sum(client.block_distribution("f").values()) == 10

    def test_by_size_rounds_up(self):
        client = make_client()
        f = client.copy_from_local("f", size_bytes=100 * MB)
        assert f.num_blocks == 2  # 100MB over 64MB blocks

    def test_requires_exactly_one_size_spec(self):
        client = make_client()
        with pytest.raises(ValueError, match="exactly one"):
            client.copy_from_local("f")
        with pytest.raises(ValueError, match="exactly one"):
            client.copy_from_local("f", size_bytes=1, num_blocks=1)

    def test_adapt_flag_skews_distribution(self):
        # The paper's added shell argument: with ADAPT on, reliable nodes
        # receive more blocks than the interrupted half.
        client = make_client()
        client.copy_from_local("plain", num_blocks=600, adapt_enabled=False)
        client.copy_from_local("smart", num_blocks=600, adapt_enabled=True)
        plain = client.block_distribution("plain")
        smart = client.block_distribution("smart")
        reliable = [f"n{i}" for i in range(3)]
        flaky = [f"n{i}" for i in range(3, 6)]
        plain_gap = sum(plain[n] for n in reliable) - sum(plain[n] for n in flaky)
        smart_gap = sum(smart[n] for n in reliable) - sum(smart[n] for n in flaky)
        assert smart_gap > plain_gap + 100

    def test_explicit_policy_overrides_flag(self):
        client = make_client()
        f = client.copy_from_local("f", num_blocks=10, policy=NaivePlacement())
        assert f.num_blocks == 10


class TestCp:
    def test_copy_preserves_shape(self):
        client = make_client()
        client.copy_from_local("src", num_blocks=8, replication=2)
        copy = client.cp("src", "dst", adapt_enabled=True)
        assert copy.num_blocks == 8
        assert copy.replication == 2
        for name in ("src", "dst"):
            assert sum(client.block_distribution(name).values()) == 16

    def test_missing_source(self):
        client = make_client()
        with pytest.raises(KeyError):
            client.cp("ghost", "dst")


class TestAdaptCommand:
    def test_adapt_reduces_flaky_load(self):
        client = make_client()
        client.copy_from_local("f", num_blocks=300, adapt_enabled=False)
        before = client.block_distribution("f")
        report = client.adapt("f")
        after = client.block_distribution("f")
        flaky = [f"n{i}" for i in range(3, 6)]
        assert sum(after[n] for n in flaky) < sum(before[n] for n in flaky)
        assert report.move_count > 0
        assert report.bytes_moved == report.move_count * 64 * MB

    def test_adapt_preserves_replica_count(self):
        client = make_client()
        client.copy_from_local("f", num_blocks=60, replication=2)
        client.adapt("f")
        dist = client.block_distribution("f")
        assert sum(dist.values()) == 120

    def test_storage_skew_metric(self):
        client = make_client(heterogeneous=False)
        client.copy_from_local("f", num_blocks=600)
        skew = client.storage_skew("f")
        assert skew >= 1.0
        assert skew < 2.0  # uniform placement stays near-balanced
