"""Tests for ASCII chart rendering."""

import pytest

from repro.experiments.charts import stacked_overhead_chart
from repro.experiments.results import ExperimentRow, SweepResult
from repro.runtime.runner import MapPhaseResult
from repro.simulator.metrics import OverheadBreakdown


def fake_result(elapsed, rework=5.0, recovery=10.0, migration=20.0):
    return MapPhaseResult(
        policy="p",
        replication=1,
        node_count=2,
        num_tasks=10,
        elapsed=elapsed,
        data_locality=0.9,
        breakdown=OverheadBreakdown(
            base_work=100.0,
            makespan=elapsed,
            slot_time=elapsed * 2,
            rework=rework,
            recovery=recovery,
            migration=migration,
            duplicate=0.0,
            idle=0.0,
            useful=100.0,
            data_locality=0.9,
        ),
        seed=0,
    )


def make_sweep():
    sweep = SweepResult(name="figX", x_label="bw")
    for key, elapsed in (("existingx1", 200.0), ("adaptx1", 100.0)):
        row = ExperimentRow(x=8.0, strategy_key=key, policy=key, replication=1)
        row.add(fake_result(elapsed))
        sweep.rows.append(row)
    return sweep


def rework_sweep(**reworks):
    """One x=8 row per strategy whose only overhead is rework (misc is 0)."""
    sweep = SweepResult(name="figX", x_label="bw")
    for key, rework in reworks.items():
        row = ExperimentRow(x=8.0, strategy_key=key, policy=key, replication=1)
        row.add(fake_result((100.0 + rework) / 2, rework=rework, recovery=0.0, migration=0.0))
        sweep.rows.append(row)
    return sweep


class TestBarChart:
    """Bar geometry of the stacked overhead chart."""

    def test_proportional_lengths(self):
        out = stacked_overhead_chart(rework_sweep(a=20.0, b=10.0), 8.0, width=20)
        lines = out.splitlines()
        assert lines[1].count("r") == 20
        assert lines[2].count("r") == 10

    def test_zero_values(self):
        out = stacked_overhead_chart(rework_sweep(a=0.0, b=0.0), 8.0)
        assert out.splitlines()[1:] == ["a |  0.00", "b |  0.00"]

    def test_title(self):
        out = stacked_overhead_chart(rework_sweep(a=1.0), 8.0)
        assert out.splitlines()[0].startswith("figX @ bw=8 (r=rework")

    def test_validation(self):
        with pytest.raises(ValueError):
            stacked_overhead_chart(SweepResult(name="empty", x_label="bw"), 8.0)


class TestSweepCharts:
    def test_stacked_overhead(self):
        out = stacked_overhead_chart(make_sweep(), 8.0, width=40)
        # Components appear with their glyphs.
        assert "R" in out and "M" in out
        assert "existingx1" in out

    def test_unknown_x_raises(self):
        with pytest.raises(KeyError):
            stacked_overhead_chart(make_sweep(), 99.0)
