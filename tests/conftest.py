"""Shared fixtures for the test suite."""

from __future__ import annotations

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
