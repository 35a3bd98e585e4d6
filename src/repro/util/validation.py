"""Argument validation helpers with consistent error messages."""

from __future__ import annotations

import os
from typing import Optional, Sequence, Union, overload


def check_positive(name: str, value: float) -> float:
    """Require ``value > 0``; return it as a float."""
    value = float(value)
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def check_count(name: str, value: int) -> int:
    """Require a positive ``int`` (a bool or a float is rejected); return it."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return value


def check_non_negative(name: str, value: float) -> float:
    """Require ``value >= 0``; return it as a float."""
    value = float(value)
    if not value >= 0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    return value


def check_probability(name: str, value: float) -> float:
    """Require ``0 <= value <= 1``; return it as a float."""
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")
    return value


@overload
def env_override(name: str, configured: str, choices: Sequence[str]) -> str:
    ...


@overload
def env_override(name: str, configured: int) -> int:
    ...


def env_override(
    name: str, configured: Union[str, int], choices: Optional[Sequence[str]] = None
) -> Union[str, int]:
    """The environment variable ``name`` when set and non-blank, else ``configured``.

    With ``choices`` the (lower-cased) value must be one of them; without,
    it must be a positive int. A bad value raises ValueError naming ``name``.
    """
    raw = os.environ.get(name, "").strip()
    if not raw:
        return configured
    if choices is not None:
        value = raw.lower()
        if value not in choices:
            raise ValueError(f"{name} must be one of {tuple(choices)}, got {value!r}")
        return value
    if not (raw.isdecimal() and int(raw) > 0):
        raise ValueError(f"{name} must be a positive integer, got {raw!r}")
    return int(raw)
