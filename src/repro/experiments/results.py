"""Experiment result records and repetition aggregation.

The paper runs every emulation scenario 10 times and reports the mean
(Section V.A). :class:`SweepResult` holds one row per (x-value, strategy)
pair with means over repetitions; rows keep every raw repetition value so
variance can be inspected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.runtime.runner import MapPhaseResult
from repro.util.stats import mean


@dataclass
class ExperimentRow:
    """Aggregated measurements for one (x, strategy) cell of a figure."""

    x: float
    strategy_key: str
    policy: str
    replication: int
    elapsed_values: List[float] = field(default_factory=list)
    locality_values: List[float] = field(default_factory=list)
    overhead_values: Dict[str, List[float]] = field(default_factory=dict)

    def add(self, result: MapPhaseResult) -> None:
        """Fold in one repetition."""
        self.elapsed_values.append(result.elapsed)
        self.locality_values.append(result.data_locality)
        for component, value in result.overhead_ratios.items():
            self.overhead_values.setdefault(component, []).append(value)

    @property
    def repetitions(self) -> int:
        return len(self.elapsed_values)

    @property
    def elapsed(self) -> float:
        """Mean map-phase elapsed time (Figure 3's metric)."""
        return mean(self.elapsed_values)

    @property
    def locality(self) -> float:
        """Mean data locality (Figure 4's metric)."""
        return mean(self.locality_values)

    def overhead(self, component: str) -> float:
        """Mean overhead ratio of one component (Figure 5's metric)."""
        return mean(self.overhead_values[component])

    @property
    def overheads(self) -> Dict[str, float]:
        return {c: mean(v) for c, v in sorted(self.overhead_values.items())}


@dataclass
class SweepResult:
    """All rows of one figure panel."""

    name: str
    x_label: str
    rows: List[ExperimentRow] = field(default_factory=list)

    def row(self, x: float, strategy_key: str) -> ExperimentRow:
        """Find one cell; raises KeyError when absent."""
        for row in self.rows:
            if row.x == x and row.strategy_key == strategy_key:
                return row
        raise KeyError(f"no row for x={x}, strategy={strategy_key!r} in {self.name}")

    def x_values(self) -> List[float]:
        seen: List[float] = []
        for row in self.rows:
            if row.x not in seen:
                seen.append(row.x)
        return seen

    def strategy_keys(self) -> List[str]:
        seen: List[str] = []
        for row in self.rows:
            if row.strategy_key not in seen:
                seen.append(row.strategy_key)
        return seen

    def series(self, strategy_key: str, metric: str = "elapsed") -> List[float]:
        """One plotted line: metric values in x order for one strategy.

        ``metric`` is ``"elapsed"``, ``"locality"``, or an overhead
        component name (``"rework"``, ``"recovery"``, ``"migration"``,
        ``"misc"``, ``"total"``).
        """
        values = []
        for x in self.x_values():
            row = self.row(x, strategy_key)
            if metric == "elapsed":
                values.append(row.elapsed)
            elif metric == "locality":
                values.append(row.locality)
            else:
                values.append(row.overhead(metric))
        return values
