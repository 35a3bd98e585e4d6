"""Shared fixtures for the test suite."""

from __future__ import annotations

import concurrent.futures

import pytest

from repro.availability.process import InterruptionProcess
from repro.util.rng import RandomSource


@pytest.fixture
def rng() -> RandomSource:
    """A fresh deterministic random source."""
    return RandomSource(12345)


@pytest.fixture
def rng2() -> RandomSource:
    """A second, independent deterministic random source."""
    return RandomSource(67890)


@pytest.fixture
def episode_calls(monkeypatch) -> list:
    """Every process whose ``InterruptionProcess.episodes`` was called.

    Each call starts a fresh busy-period fold, so the list's length counts
    the folds a test triggered.
    """
    calls: list = []
    real = InterruptionProcess.episodes

    def counting(self, *args, **kwargs):
        calls.append(self)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(InterruptionProcess, "episodes", counting)
    return calls


@pytest.fixture
def pools(monkeypatch):
    """The ``max_workers`` of every process pool pregeneration opens."""
    opened = []
    real = concurrent.futures.ProcessPoolExecutor

    class CountingPool(real):
        def __init__(self, max_workers):
            opened.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    return opened
