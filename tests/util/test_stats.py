"""Tests for streaming and summary statistics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.stats import (
    RunningStats,
    mean,
    percentile,
    summarize,
)

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestRunningStats:
    def test_single_value(self):
        acc = RunningStats()
        acc.add(5.0)
        assert acc.mean == 5.0
        assert acc.std == 0.0
        assert acc.count == 1

    def test_known_values(self):
        acc = RunningStats()
        acc.extend([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
        assert acc.mean == pytest.approx(5.0)
        # Sample std with n-1 denominator.
        assert acc.variance == pytest.approx(32.0 / 7.0)

    def test_min_max(self):
        acc = RunningStats()
        acc.extend([3.0, -1.0, 7.0])
        assert acc.minimum == -1.0
        assert acc.maximum == 7.0

    def test_empty_raises(self):
        acc = RunningStats()
        with pytest.raises(ValueError):
            _ = acc.mean

    @given(st.lists(finite_floats, min_size=2, max_size=50))
    @settings(max_examples=100)
    def test_matches_reference(self, values):
        acc = RunningStats()
        acc.extend(values)
        ref_mean = sum(values) / len(values)
        ref_var = sum((v - ref_mean) ** 2 for v in values) / (len(values) - 1)
        assert acc.mean == pytest.approx(ref_mean, abs=1e-6)
        assert acc.variance == pytest.approx(ref_var, rel=1e-6, abs=1e-6)


class TestSummaries:
    def test_summarize_cov(self):
        s = summarize([10.0, 10.0, 10.0])
        assert s.cov == 0.0
        assert s.count == 3

    def test_cov_known(self):
        # mean 2, std 1 -> CoV 0.5 for [1, 2, 3] sample std = 1.
        assert summarize([1.0, 2.0, 3.0]).cov == pytest.approx(0.5)

    def test_summarize_empty_raises(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_as_row(self):
        row = summarize([1.0, 2.0, 3.0]).as_row()
        assert len(row) == 3
        assert row[0] == "2.0"

    def test_mean_helper(self):
        assert mean([1, 2, 3]) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            mean([])


class TestPercentile:
    def test_median(self):
        assert percentile([1.0, 2.0, 3.0], 50) == 2.0

    def test_interpolation(self):
        assert percentile([0.0, 10.0], 25) == pytest.approx(2.5)

    def test_extremes(self):
        data = [5.0, 1.0, 9.0]
        assert percentile(data, 0) == 1.0
        assert percentile(data, 100) == 9.0

    def test_single_element(self):
        assert percentile([7.0], 99) == 7.0

    def test_bad_q(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_empty(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    @given(st.lists(finite_floats, min_size=1, max_size=30))
    @settings(max_examples=50)
    def test_within_range(self, values):
        p = percentile(values, 37.5)
        assert min(values) <= p <= max(values)
