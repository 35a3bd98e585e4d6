"""ASCII charts for experiment results.

The paper presents Figures 3-5 as bar charts; these helpers render the
same visual structure in plain text so a terminal run of the benchmark
harness communicates shape at a glance (who wins, which component
dominates), complementing the numeric tables in
:mod:`repro.experiments.reporting`.
"""

from __future__ import annotations

from typing import List, Mapping, Sequence

from repro.experiments.results import SweepResult

#: Glyph per overhead component, used in stacked bars.
_COMPONENT_GLYPHS = (
    ("rework", "r"),
    ("recovery", "R"),
    ("migration", "M"),
    ("misc", "#"),
)


def bar_chart(
    values: Mapping[str, float],
    width: int = 50,
    title: str = "",
) -> str:
    """Horizontal bars for a label -> value mapping (natural order kept)."""
    if not values:
        raise ValueError("nothing to chart")
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    peak = max(values.values())
    if peak < 0:
        raise ValueError("bar values must be non-negative")
    label_width = max(len(str(k)) for k in values)
    lines: List[str] = [title] if title else []
    for label, value in values.items():
        if value < 0:
            raise ValueError(f"bar value for {label!r} is negative")
        filled = 0 if peak == 0 else int(round(width * value / peak))
        lines.append(f"{str(label).ljust(label_width)} | {'█' * filled} {value:g}")
    return "\n".join(lines)


def elapsed_chart(sweep: SweepResult, x: float, width: int = 50) -> str:
    """One x-value of a Figure 3 panel as bars (one bar per strategy)."""
    values = {key: sweep.row(x, key).elapsed for key in sweep.strategy_keys()}
    return bar_chart(values, width=width, title=f"{sweep.name} @ {sweep.x_label}={x:g} (s)")


def stacked_overhead_chart(
    sweep: SweepResult,
    x: float,
    width: int = 60,
) -> str:
    """One x-value of a Figure 5 panel as stacked component bars.

    Each strategy's bar is segmented by component glyph (r=rework,
    R=recovery, M=migration, #=misc); segment lengths are proportional to
    the component's overhead ratio on a scale shared across strategies.
    """
    keys = sweep.strategy_keys()
    if not keys:
        raise ValueError("sweep has no strategies")
    totals = {key: sweep.row(x, key).overhead("total") for key in keys}
    peak = max(totals.values())
    label_width = max(len(k) for k in keys)
    lines = [
        f"{sweep.name} @ {sweep.x_label}={x:g} "
        "(r=rework R=recovery M=migration #=misc; length ∝ overhead ratio)"
    ]
    for key in keys:
        row = sweep.row(x, key)
        bar = ""
        for component, glyph in _COMPONENT_GLYPHS:
            ratio = row.overhead(component)
            segment = 0 if peak == 0 else int(round(width * ratio / peak))
            bar += glyph * segment
        lines.append(f"{key.ljust(label_width)} | {bar} {totals[key]:.2f}")
    return "\n".join(lines)


def series_sparkline(values: Sequence[float], levels: str = "▁▂▃▄▅▆▇█") -> str:
    """A one-line sparkline of a metric series (trend at a glance)."""
    if not values:
        raise ValueError("nothing to sparkline")
    low = min(values)
    high = max(values)
    if high == low:
        return levels[0] * len(values)
    span = high - low
    out = []
    for value in values:
        index = int((value - low) / span * (len(levels) - 1))
        out.append(levels[index])
    return "".join(out)
