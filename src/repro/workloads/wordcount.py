"""Wordcount: a compute-denser workload than terasort.

Used by the examples to show ADAPT on a second realistic job shape: more
CPU per byte than terasort.
"""

from __future__ import annotations

from repro.workloads.base import RateBasedWorkload

#: Roughly 1.6x denser than terasort: 19.2 s per 64 MB block.
WORDCOUNT_SECONDS_PER_MB = 0.3


class WordCountWorkload(RateBasedWorkload):
    """Wordcount workload model."""

    name = "wordcount"

    def __init__(self, seconds_per_mb: float = WORDCOUNT_SECONDS_PER_MB) -> None:
        super().__init__(seconds_per_mb)
