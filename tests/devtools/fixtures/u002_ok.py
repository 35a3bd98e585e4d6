"""U002 clean fixture: every import is read, exported or waived."""

from __future__ import annotations

import os.path
from typing import TYPE_CHECKING, List, Optional

from json import dumps  # noqa: F401  (re-exported for callers)
from json import loads

if TYPE_CHECKING:
    from decimal import Decimal

__all__ = ["loads", "newest"]


def newest(paths: List[str], floor: "Optional[Decimal]" = None) -> Optional[str]:
    return max(paths, key=os.path.getmtime) if paths else None
