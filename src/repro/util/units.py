"""Unit helpers for data sizes and network rates.

Internally the library uses **bytes** for sizes and **bytes/second** for
rates; the helpers here convert from the units the paper uses (megabytes for
block sizes, megabits/s for bandwidth) into those canonical units.
"""

from __future__ import annotations

#: One megabyte in bytes (the paper's 64MB blocks are 64 * MB bytes).
MB: int = 1024 * 1024

#: One megabit in bytes (network rates are quoted in Mb/s).
Mb: float = 1_000_000 / 8.0


def mbit_per_s(rate: float) -> float:
    """Convert a rate in megabits/second to bytes/second."""
    if rate <= 0:
        raise ValueError(f"bandwidth must be positive, got {rate}")
    return rate * Mb
