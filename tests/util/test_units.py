"""Tests for unit conversions."""

import pytest

from repro.util.units import MB, Mb, mbit_per_s


class TestConversions:
    def test_megabytes(self):
        assert 64 * MB == 64 * 1024 * 1024

    def test_mbit_per_s(self):
        # 8 Mb/s = 1e6 bytes/s.
        assert mbit_per_s(8) == pytest.approx(1_000_000.0)

    def test_mbit_rejects_non_positive(self):
        with pytest.raises(ValueError):
            mbit_per_s(0)

    def test_transfer_time_64mb_at_8mbps(self):
        # The paper's canonical example: a 64MB block at 8Mb/s takes ~67s.
        assert 64 * MB / mbit_per_s(8) == pytest.approx(67.1, abs=0.1)


class TestFormatting:
    def test_mb_constant_consistency(self):
        assert Mb == pytest.approx(125_000.0)
