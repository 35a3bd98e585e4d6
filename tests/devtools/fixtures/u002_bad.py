"""U002 fixture: a deletion stranded these imports; nothing reads them."""

import json
from typing import Dict, List


def names(rows: List[str]) -> List[str]:
    return sorted(rows)
