"""Tests for workload models."""

import pytest

from repro.hdfs.blocks import DfsFile
from repro.util.units import MB
from repro.workloads import TerasortWorkload, WordCountWorkload


class TestTerasort:
    def test_table4_calibration(self):
        # "Failure-free Task Execution Time (64MB data block): 12s".
        wl = TerasortWorkload()
        assert wl.gamma_seconds(64 * MB) == pytest.approx(12.0)

    def test_gamma_scales_with_block_size(self):
        wl = TerasortWorkload()
        assert wl.gamma_seconds(128 * MB) == pytest.approx(24.0)
        assert wl.gamma_seconds(16 * MB) == pytest.approx(3.0)


class TestOtherWorkloads:
    def test_relative_densities(self):
        block = 64 * MB
        tera = TerasortWorkload().gamma_seconds(block)
        wc = WordCountWorkload().gamma_seconds(block)
        assert tera < wc

    def test_gammas_uniform_by_default(self):
        wl = TerasortWorkload()
        f = DfsFile.build("f", 4, 64 * MB, 1)
        assert wl.gammas(f) == [12.0] * 4

    def test_invalid_block_size(self):
        with pytest.raises(ValueError):
            TerasortWorkload().gamma_seconds(0)

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            WordCountWorkload(seconds_per_mb=0.0)
