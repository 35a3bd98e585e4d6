"""Workload models: per-block failure-free map-task lengths.

The paper benchmarks Terasort (Section V.A) with 64 MB blocks and a
failure-free task execution time of 12 s per block (Table 4). A workload
maps a block size to gamma — the failure-free map length. Wordcount
exercises the same machinery at a denser compute rate.
"""

from repro.workloads.base import Workload
from repro.workloads.terasort import TerasortWorkload
from repro.workloads.wordcount import WordCountWorkload

__all__ = [
    "Workload",
    "TerasortWorkload",
    "WordCountWorkload",
]
