"""Render sweep results as the tables the paper plots.

``render_sweep`` prints one row per x-value with one column per strategy —
the textual equivalent of a Figure 3/4 panel — and, for overhead metrics,
one block per strategy with the component breakdown (Figure 5 bars).
"""

from __future__ import annotations

from typing import List

from repro.experiments.results import SweepResult
from repro.util.tables import format_table

_COMPONENTS = ("rework", "recovery", "migration", "misc", "total")


def render_sweep(
    sweep: SweepResult,
    metric: str = "elapsed",
    title: str = "",
) -> str:
    """One figure panel as an ASCII table (columns = strategies)."""
    strategies = sweep.strategy_keys()
    headers = [sweep.x_label, *strategies]
    rows: List[List[object]] = []
    for x in sweep.x_values():
        cells: List[object] = [_fmt_x(x)]
        for key in strategies:
            row = sweep.row(x, key)
            if metric == "elapsed":
                cells.append(f"{row.elapsed:.1f}")
            elif metric == "locality":
                cells.append(f"{row.locality:.3f}")
            else:
                cells.append(f"{row.overhead(metric):.3f}")
        rows.append(cells)
    return format_table(headers, rows, title=title or f"{sweep.name} [{metric}]")


def render_overhead_breakdown(sweep: SweepResult, title: str = "") -> str:
    """Figure 5 style: per (x, strategy) the full component breakdown."""
    headers = [sweep.x_label, "strategy", *(f"{c}%" for c in _COMPONENTS)]
    rows: List[List[object]] = []
    for x in sweep.x_values():
        for key in sweep.strategy_keys():
            row = sweep.row(x, key)
            cells: List[object] = [_fmt_x(x), key]
            for component in _COMPONENTS:
                cells.append(f"{100 * row.overhead(component):.1f}")
            rows.append(cells)
    return format_table(headers, rows, title=title or f"{sweep.name} [overhead breakdown]")


def _fmt_x(x: float) -> str:
    if float(x).is_integer():
        return str(int(x))
    return f"{x:g}"
