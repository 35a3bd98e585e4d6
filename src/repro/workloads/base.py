"""The workload abstraction."""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Optional

from repro.hdfs.blocks import DfsFile
from repro.util.rng import RandomSource
from repro.util.units import MB


class Workload(ABC):
    """Maps input blocks to failure-free map-task lengths (gamma)."""

    #: Short machine-readable name.
    name: str = "abstract"

    @abstractmethod
    def gamma_seconds(self, block_size_bytes: int) -> float:
        """Failure-free map time for one block of the given size."""

    def gammas(self, dfs_file: DfsFile, rng: Optional[RandomSource] = None) -> List[float]:
        """Per-task gammas for a file (uniform unless a subclass varies them)."""
        return [self.gamma_seconds(block.size_bytes) for block in dfs_file.blocks]

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class RateBasedWorkload(Workload):
    """A workload defined by a processing density in seconds per megabyte."""

    def __init__(self, seconds_per_mb: float) -> None:
        if seconds_per_mb <= 0:
            raise ValueError(f"seconds_per_mb must be positive, got {seconds_per_mb}")
        self._seconds_per_mb = seconds_per_mb

    def gamma_seconds(self, block_size_bytes: int) -> float:
        if block_size_bytes <= 0:
            raise ValueError(f"block size must be positive, got {block_size_bytes}")
        return self._seconds_per_mb * block_size_bytes / MB
