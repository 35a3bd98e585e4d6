"""Shared utilities: random-stream management, units, statistics, tables.

These helpers are deliberately dependency-free so every other subpackage can
use them without import cycles.
"""

from repro.util.rng import RandomSource, derive_seed
from repro.util.stats import RunningStats, SummaryStats, summarize
from repro.util.tables import format_table
from repro.util.units import MB, Mb, mbit_per_s
from repro.util.validation import (
    check_non_negative,
    check_positive,
    check_probability,
)

__all__ = [
    "RandomSource",
    "derive_seed",
    "RunningStats",
    "SummaryStats",
    "summarize",
    "format_table",
    "MB",
    "Mb",
    "mbit_per_s",
    "check_non_negative",
    "check_positive",
    "check_probability",
]
