"""Terasort: the paper's benchmark (Section V.A, Table 4).

Calibrated so a 64 MB block maps in 12 seconds failure-free, matching
Table 4's "Failure-free Task Execution Time (64MB data block): 12s".
"""

from __future__ import annotations

from repro.workloads.base import RateBasedWorkload

#: Table 4 calibration: 12 s per 64 MB block.
TERASORT_SECONDS_PER_MB = 12.0 / 64.0


class TerasortWorkload(RateBasedWorkload):
    """The paper's terasort benchmark model."""

    name = "terasort"

    def __init__(self, seconds_per_mb: float = TERASORT_SECONDS_PER_MB) -> None:
        super().__init__(seconds_per_mb)
