"""Shared fixtures for the test suite."""

from __future__ import annotations

import concurrent.futures

import pytest

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
