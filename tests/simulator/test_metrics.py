"""Tests for the overhead decomposition accounting."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator.metrics import MapPhaseMetrics


def full_metrics():
    m = MapPhaseMetrics()
    m.add_base(100.0)
    m.add_useful(100.0)
    m.add_rework(10.0)
    m.add_recovery(20.0)
    m.add_migration(15.0)
    m.add_duplicate(5.0)
    m.add_idle(30.0)
    m.record_completion(local=True)
    m.record_completion(local=True)
    m.record_completion(local=False)
    return m


class TestAccumulation:
    def test_counts(self):
        m = full_metrics()
        assert m.total_tasks == 3
        assert m.local_tasks == 2
        assert m.failed_attempts == 1
        assert m.migrations == 1

    def test_locality(self):
        m = full_metrics()
        assert m.data_locality == pytest.approx(2.0 / 3.0)

    def test_locality_without_tasks_is_nan(self):
        # Zero completions (every task abandoned after total data loss):
        # the ratio is undefined, but reporting must not abort.
        assert math.isnan(MapPhaseMetrics().data_locality)

    def test_negative_rejected(self):
        m = MapPhaseMetrics()
        with pytest.raises(ValueError):
            m.add_rework(-1.0)


class TestBreakdown:
    def test_ratios(self):
        m = full_metrics()
        # 2 slots x 90s makespan = 180 slot-seconds.
        b = m.breakdown(makespan=90.0, slots=2)
        r = b.ratios()
        assert r["rework"] == pytest.approx(0.10)
        assert r["recovery"] == pytest.approx(0.20)
        assert r["migration"] == pytest.approx(0.15)
        # misc = slot_time - useful - rework - recovery - migration
        #      = 180 - 100 - 10 - 20 - 15 = 35 -> 0.35.
        assert r["misc"] == pytest.approx(0.35)
        assert r["total"] == pytest.approx(0.80)

    def test_conservation_residual(self):
        m = full_metrics()
        b = m.breakdown(makespan=90.0, slots=2)
        # 180 - (100+10+20+15+5+30) = 0.
        assert b.conservation_residual() == pytest.approx(0.0)

    def test_misc_never_negative(self):
        m = MapPhaseMetrics()
        m.add_base(10.0)
        m.add_useful(10.0)
        m.record_completion(local=True)
        b = m.breakdown(makespan=1.0, slots=5)  # slot time < useful: clamp
        assert b.misc == 0.0

    def test_misc_raw_surfaces_clamped_remainder(self):
        # Regression: the display clamp used to hide a negative remainder
        # (double-charged slot time). misc_raw keeps the signed value so
        # audits can see what the clamp swallowed.
        m = MapPhaseMetrics()
        m.add_base(10.0)
        m.add_useful(10.0)
        m.record_completion(local=True)
        b = m.breakdown(makespan=1.0, slots=5)  # slot_time 5 < useful 10
        assert b.misc == 0.0
        assert b.misc_raw == pytest.approx(-5.0)

    def test_misc_raw_equals_misc_when_positive(self):
        m = full_metrics()
        b = m.breakdown(makespan=90.0, slots=2)
        assert b.misc_raw == pytest.approx(b.misc)
        assert b.misc_raw == pytest.approx(35.0)

    def test_breakdown_emits_with_all_tasks_abandoned(self):
        # Total data loss: base work was submitted but nothing completed.
        # Locality is NaN yet the breakdown must still emit its row.
        m = MapPhaseMetrics()
        m.add_base(50.0)
        m.add_rework(7.0)
        b = m.breakdown(makespan=20.0, slots=2)
        assert math.isnan(b.data_locality)
        assert b.rework == pytest.approx(7.0)
        assert b.slot_time == pytest.approx(40.0)

    def test_requires_base_work(self):
        m = MapPhaseMetrics()
        with pytest.raises(ValueError, match="base work"):
            m.breakdown(makespan=1.0, slots=1)

    def test_requires_positive_slots(self):
        m = full_metrics()
        with pytest.raises(ValueError):
            m.breakdown(makespan=1.0, slots=0)

    @given(
        st.floats(min_value=1.0, max_value=1000.0),
        st.floats(min_value=0.0, max_value=100.0),
        st.floats(min_value=0.0, max_value=100.0),
        st.floats(min_value=0.0, max_value=100.0),
        st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=100)
    def test_total_is_sum_of_components(self, base, rework, recovery, migration, slots):
        m = MapPhaseMetrics()
        m.add_base(base)
        m.add_useful(base)
        m.add_rework(rework)
        m.add_recovery(recovery)
        m.add_migration(migration)
        m.record_completion(local=True)
        makespan = (base + rework + recovery + migration) / slots + 1.0
        b = m.breakdown(makespan=makespan, slots=slots)
        r = b.ratios()
        assert r["total"] == pytest.approx(
            r["rework"] + r["recovery"] + r["migration"] + r["misc"]
        )
