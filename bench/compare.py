#!/usr/bin/env python
"""Compare two benchmark records, metric by metric and workload by workload.

    python bench/compare.py BASE.json NEW.json

Records come from ``python bench/run.py --out FILE``. Each metric
carries its value, the median of its passes, beside their quartiles.
Each end-to-end metric bounded in ``BENCHMARK.json`` gets one verdict
per workload:

* ``worse``: NEW's median is worse than BASE's by more than the bound
  (relative to BASE's median, and at least the unit's absolute floor);
* ``better``: NEW's median is better by more than that;
* ``unresolved``: in either record the quartile spread is wider than
  that allowed change, unless every NEW pass beats (or loses to) every
  BASE pass;
* ``unchanged``: otherwise.

``fail_rate`` may not rise at all. Metrics ``BENCHMARK.json`` does not
bound are shown for information only. Exits 1 when any pair is worse,
2 when the records are not like for like (different python, workload
knobs, cells or seed).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from run import SPEC_PATH

#: Absolute floors below which a change never counts: a ~10 ms set-up
#: phase would otherwise trip on scheduler noise.
ABSOLUTE_FLOOR = {"s": 0.05, "MB": 5.0}


def like_for_like(base: Dict[str, Any], new: Dict[str, Any]) -> List[str]:
    """Reasons the two records cannot be compared (empty when they can)."""
    problems = []
    if base["env"]["python"] != new["env"]["python"]:
        problems.append(f"python {base['env']['python']} != {new['env']['python']}")
    for name in sorted(set(base["workloads"]) | set(new["workloads"])):
        if name not in base["workloads"] or name not in new["workloads"]:
            problems.append(f"workload {name} is in only one record")
        elif base["workloads"][name]["knobs"] != new["workloads"][name]["knobs"]:
            problems.append(f"workload {name}: knobs differ")
    return problems


def verdict(
    base: Dict[str, Any], new: Dict[str, Any], bound: float, better: str, floor: float = 0.0
) -> str:
    """Classify one (metric, workload) pair; see the module docstring."""
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (new["value"] - base["value"])
    allowed = max(bound * abs(base["value"]), floor)
    # Oriented so that larger is worse, whatever the metric's direction.
    base_values = [sign * v for v in base["values"]]
    new_values = [sign * v for v in new["values"]]
    spread = max(s["q3"] - s["q1"] for s in (base, new))
    if spread > allowed:
        if max(new_values) < min(base_values) and worsening < -allowed:
            return "better"
        if min(new_values) > max(base_values) and worsening > allowed:
            return "worse"
        return "unresolved"
    if worsening > allowed:
        return "worse"
    if worsening < -allowed:
        return "better"
    return "unchanged"


def compare(
    base: Dict[str, Any], new: Dict[str, Any], spec: Dict[str, Any]
) -> List[Tuple[str, str, str, Dict[str, Any], Dict[str, Any]]]:
    """``(workload, metric, verdict, base summary, new summary)`` rows."""
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    rows = []
    for name, base_entry in base["workloads"].items():
        new_metrics = new["workloads"][name]["metrics"]
        for metric, base_summary in base_entry["metrics"].items():
            new_summary = new_metrics.get(metric)
            if new_summary is None:
                continue
            if metric == "fail_rate":
                result = "worse" if new_summary["value"] > base_summary["value"] else "unchanged"
            elif metric in bounds:
                m = bounds[metric]
                floor = ABSOLUTE_FLOOR.get(m["unit"], 0.0)
                result = verdict(base_summary, new_summary, m["bound"], m["better"], floor)
            else:
                result = "info"
            rows.append((name, metric, result, base_summary, new_summary))
    return rows


def _fmt(summary: Dict[str, Any]) -> str:
    return f"{summary['median']:.6g} [{summary['q1']:.6g}, {summary['q3']:.6g}] n={summary['n']}"


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(Path(p).read_text(encoding="utf-8")) for p in args)
    problems = like_for_like(base, new)
    if problems:
        for problem in problems:
            print(f"not like for like: {problem}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    rows = compare(base, new, spec)
    for name, metric, result, b, n in rows:
        change = (n["value"] - b["value"]) / b["value"] if b["value"] else 0.0
        print(
            f"{name:21s} {metric:18s} {result:10s} {change:+7.1%}  "
            f"base {_fmt(b)}  new {_fmt(n)}  {b['unit']}"
        )
    worse = [row for row in rows if row[2] == "worse"]
    print(f"{len(worse)} worse, {sum(r[2] == 'unresolved' for r in rows)} unresolved, "
          f"{sum(r[2] == 'better' for r in rows)} better")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
