"""Tests for the synthetic SETI@home trace model (Table 1 substitution)."""

import pytest

from repro.availability.seti import (
    TABLE1_DURATION_COV,
    TABLE1_MTBI_COV,
    TABLE1_MTBI_MEAN,
    SetiModelParams,
    SetiTraceGenerator,
    calibrate_empirically,
)
from repro.availability.traces import pooled_summary
from repro.util.rng import RandomSource


class TestClosedFormCalibration:
    def test_pooled_moment_formulas(self):
        params = SetiModelParams.calibrated_to_table1()
        # The closed forms must reproduce the targets they were solved from.
        assert params.expected_pooled_mtbi_mean() == pytest.approx(TABLE1_MTBI_MEAN)
        assert params.expected_pooled_mtbi_cov() == pytest.approx(TABLE1_MTBI_COV)
        assert params.expected_pooled_duration_cov() == pytest.approx(TABLE1_DURATION_COV)

    def test_population_mean_exceeds_pooled_mean(self):
        # Length-biased pooling favours short-MTBI hosts, so the population
        # mean must sit above the pooled mean.
        params = SetiModelParams.calibrated_to_table1()
        assert params.mtbi_population_mean > TABLE1_MTBI_MEAN

    def test_rejects_low_cov(self):
        # Pooled CoV of exponential gaps cannot go below 1.
        with pytest.raises(ValueError, match="exceed 1"):
            SetiModelParams.calibrated_to_table1(mtbi_cov=0.9)

    def test_rejects_excess_within_cov(self):
        with pytest.raises(ValueError, match="lower it"):
            SetiModelParams.calibrated_to_table1(
                duration_cov=2.0, duration_within_cov=5.0
            )

    def test_validation(self):
        with pytest.raises(ValueError):
            SetiModelParams(
                mtbi_population_mean=-1.0,
                mtbi_population_sigma=1.0,
                duration_mean=1.0,
                duration_between_cov=1.0,
                duration_within_cov=1.0,
            )


class TestGenerator:
    def setup_method(self):
        self.params = SetiModelParams.calibrated_to_table1()
        self.generator = SetiTraceGenerator(self.params, RandomSource(5))

    def test_host_sampling_is_index_stable(self):
        # Host k must be identical regardless of how many hosts are drawn.
        a = self.generator.sample_hosts(10)
        b = self.generator.sample_hosts(50)
        assert a[7].mtbi == b[7].mtbi
        assert a[7].service_mean == b[7].service_mean

    def test_hosts_are_heterogeneous(self):
        hosts = self.generator.sample_hosts(200)
        mtbis = sorted(h.mtbi for h in hosts)
        assert mtbis[-1] / mtbis[0] > 10.0

    def test_all_hosts_interruptible(self):
        hosts = self.generator.sample_hosts(20)
        assert all(not h.is_dedicated for h in hosts)

    def test_trace_generation(self):
        trace = self.generator.sample_trace(0, horizon=1e7)
        assert trace.horizon == 1e7

    def test_count_validation(self):
        with pytest.raises(ValueError):
            self.generator.sample_hosts(0)

    def test_pooled_stats_are_heavy_tailed(self):
        # The property the evaluation depends on: CoV >> 1 (Table 1 shows
        # 4.4 and 7.4). Tolerances are loose because heavy-tail statistics
        # converge slowly.
        traces = self.generator.sample_traces(300, horizon=1.5 * 365 * 86400.0)
        stats = pooled_summary(traces)
        assert stats["mtbi"].cov > 1.5
        assert stats["duration"].cov > 1.5
        assert stats["mtbi"].count > 1000


class TestEmpiricalCalibration:
    def test_small_calibration_moves_toward_target(self):
        # A tiny calibration run must land the pooled MTBI mean within a
        # factor ~2 of the target (the closed form starts ~2x off).
        params = calibrate_empirically(node_count=120, iterations=3, seed=1)
        generator = SetiTraceGenerator(params, RandomSource(42))
        stats = pooled_summary(generator.sample_traces(200, 1.5 * 365 * 86400.0))
        ratio = stats["mtbi"].mean / TABLE1_MTBI_MEAN
        assert 0.4 < ratio < 2.5
