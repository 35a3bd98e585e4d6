"""Diagnostic output: SARIF rendering and finding baselines.

* :func:`to_sarif` emits a minimal SARIF 2.1.0 document — the subset
  GitHub code scanning ingests — with one ``result`` per diagnostic and
  the rule table in the driver metadata.
* A **baseline** is a JSON snapshot of current findings. Re-running with
  ``--baseline FILE`` subtracts the snapshot (per ``(path, code,
  message)``, with multiplicity) so only *new* findings remain — the
  mechanism that lets a new rule land before the cleanup sweep finishes.
  Baseline entries deliberately exclude line numbers: unrelated edits
  shift lines constantly, and a baseline that rots on every edit would
  get deleted, not maintained. An entry may carry a hand-written
  ``justification``; refreshing the file keeps it while the entry's
  finding still fires.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, List, Tuple, Type

from repro.devtools.simlint.diagnostics import Diagnostic
from repro.devtools.simlint.registry import Rule

#: SARIF schema pin (the version GitHub code scanning accepts).
SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"
SARIF_VERSION = "2.1.0"

#: Baseline file format version.
BASELINE_VERSION = 1

_SARIF_LEVELS = {"error": "error", "warning": "warning"}


def to_sarif(diagnostics: List[Diagnostic], rules: Dict[str, Type[Rule]]) -> Dict[str, object]:
    """SARIF 2.1.0 document for one run (stable ordering throughout)."""
    emitted_codes = sorted({d.code for d in diagnostics} | set(rules))
    rule_entries = []
    for code in emitted_codes:
        summary = rules[code].summary if code in rules else code
        rule_entries.append(
            {
                "id": code,
                "shortDescription": {"text": summary or code},
            }
        )
    results = [
        {
            "ruleId": diagnostic.code,
            "level": _SARIF_LEVELS.get(diagnostic.severity, "warning"),
            "message": {"text": diagnostic.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": diagnostic.path},
                        "region": {
                            "startLine": diagnostic.line,
                            # SARIF columns are 1-based; diagnostics use
                            # 0-based AST offsets.
                            "startColumn": diagnostic.col + 1,
                        },
                    }
                }
            ],
        }
        for diagnostic in sorted(diagnostics)
    ]
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "simlint",
                        "informationUri": "https://example.invalid/repro-devtools",
                        "rules": rule_entries,
                    }
                },
                "results": results,
            }
        ],
    }


def _baseline_key(diagnostic: Diagnostic) -> Tuple[str, str, str]:
    return (diagnostic.path, diagnostic.code, diagnostic.message)


def write_baseline(
    path: Path, diagnostics: List[Diagnostic], covers: Callable[[str, str], bool]
) -> Tuple[int, int]:
    """Snapshot current findings to ``path`` (sorted, line-free).

    ``covers(path, code)`` says whether the run checked ``code`` on
    ``path``. Only the entries it covers are replaced; every other entry
    is kept as it was, so a ``--select`` run or a run over some of the
    paths cannot drop the rest. A replaced entry whose key survives keeps
    its justification. Returns how many findings were recorded and how
    many entries were kept untouched.
    """
    old: List[Dict[str, object]] = []
    if path.exists():
        old = json.loads(path.read_text(encoding="utf-8")).get("entries", [])
    entries = [e for e in old if not covers(str(e["path"]), str(e["code"]))]
    kept = len(entries)
    justifications = {
        (str(e["path"]), str(e["code"]), str(e["message"])): e["justification"]
        for e in old
        if e.get("justification")
    }
    found = Counter(_baseline_key(d) for d in diagnostics if covers(d.path, d.code))
    for key, count in found.items():
        entry = {"path": key[0], "code": key[1], "message": key[2], "count": count}
        if key in justifications:
            entry["justification"] = justifications[key]
        entries.append(entry)
    entries.sort(key=lambda e: (str(e["path"]), str(e["code"]), str(e["message"])))
    document = {"version": BASELINE_VERSION, "entries": entries}
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return sum(found.values()), kept


def load_baseline(path: Path) -> Counter:
    """Baseline entry multiset from ``path``; raises on unknown versions."""
    document = json.loads(path.read_text(encoding="utf-8"))
    version = document.get("version")
    if version != BASELINE_VERSION:
        raise ValueError(f"unsupported baseline version {version!r} in {path}")
    counts: Counter = Counter()
    for entry in document.get("entries", []):
        key = (str(entry["path"]), str(entry["code"]), str(entry["message"]))
        counts[key] += int(entry.get("count", 1))
    return counts


def apply_baseline(
    diagnostics: List[Diagnostic], baseline: Counter
) -> Tuple[List[Diagnostic], int]:
    """Drop baselined findings; returns (new findings, matched count).

    Multiplicity-aware: a baseline entry with ``count: 2`` absorbs the
    first two identical findings and lets a third through.
    """
    budget = Counter(baseline)
    kept: List[Diagnostic] = []
    matched = 0
    for diagnostic in sorted(diagnostics):
        key = _baseline_key(diagnostic)
        if budget[key] > 0:
            budget[key] -= 1
            matched += 1
        else:
            kept.append(diagnostic)
    return kept, matched


__all__ = [
    "BASELINE_VERSION",
    "SARIF_SCHEMA",
    "SARIF_VERSION",
    "apply_baseline",
    "load_baseline",
    "to_sarif",
    "write_baseline",
]
