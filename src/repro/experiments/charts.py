"""ASCII charts for experiment results.

The paper presents Figure 5 as stacked bar charts; this helper renders the
same visual structure in plain text so a terminal run of the benchmark
harness communicates shape at a glance (who wins, which component
dominates), complementing the numeric tables in
:mod:`repro.experiments.reporting`.
"""

from __future__ import annotations

from repro.experiments.results import SweepResult

#: Glyph per overhead component, used in stacked bars.
_COMPONENT_GLYPHS = (
    ("rework", "r"),
    ("recovery", "R"),
    ("migration", "M"),
    ("misc", "#"),
)


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
