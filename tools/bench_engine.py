#!/usr/bin/env python
"""Benchmark the simulation kernel: events/sec and peak RSS by node count.

Each cell builds a SETI-population cluster (oracle detection, no burn-in,
no MapReduce job — the pure failure/event kernel) and runs it for a fixed
simulated horizon, recording build time, run time, events dispatched,
events/sec, and peak RSS. Cells run in **separate subprocesses** so peak
RSS is per-cell, not cumulative.

The committed ``BENCH_engine.json`` carries two sections:

* ``baseline`` — captured at the pre-refactor revision with this same
  tool (the scale-kernel acceptance bar: >= 5x events/sec on the 16k
  cell; the build-kernel bar: >= 10x lower build_seconds there).
* ``current`` — the tree as checked out.

Schema 2 cells carry a ``topology`` discriminator ("flat" unless the
cell enables the Clos fabric); the 4k population is measured both flat
and behind a 32-rack oversubscribed Clos with rack-aware ingest, and the
``--guard`` gate fails CI when the Clos cell slows by more than 20%.

Schema 2 adds a per-cell ``build_breakdown`` (pregen / object
construction / bus wiring / total, from ``Cluster.build_profile``, plus a
separately-timed metadata ingest of one block per node at replication 3 —
ingest is *not* part of ``build_seconds``, keeping the build numbers
comparable with schema-1 records). Cells recorded before pregeneration
lost its bulk seed derivation also carry ``seed_derivation_seconds`` and
``sample_seconds``, two sub-spans of ``pregen_seconds`` the build no
longer reports; nothing reads them.

Usage::

    PYTHONPATH=src python tools/bench_engine.py --out BENCH_engine.json
    PYTHONPATH=src python tools/bench_engine.py --smoke \
        --guard BENCH_engine.json        # CI perf-regression gate
    PYTHONPATH=src python tools/bench_engine.py --full   # adds the 226k cell

The tool runs unchanged on revisions that predate ``pregen_horizon``:
a knob is applied only when the checked-out ``ClusterConfig`` has the
field.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

#: Per-cell knob overrides for the hierarchical-topology cell: the same
#: 4k population behind a 32-rack Clos fabric at 4:1 oversubscription,
#: with rack-aware placement so the ingest path pays the off-rack rule.
#: ``_cluster_config_kwargs`` drops these on revisions that predate the
#: topology layer, where the cell degenerates to a second flat 4k run.
CLOS_KNOBS = {
    "topology": "clos",
    "racks": 32,
    "oversubscription": 4.0,
    "rack_aware_placement": True,
}
#: (node_count, simulated days, cell knobs) — the 226k cell is the full
#: SETI@home FTA population over a multi-day window (ROADMAP item 1).
CELLS = [
    (1024, 2.0, {}),
    (4096, 2.0, {}),
    (4096, 2.0, CLOS_KNOBS),
    (16384, 2.0, {}),
]
FULL_CELL = (226_208, 3.0, {})
SMOKE_NODES = 1024
#: The smoke run also measures this cell, so CI can guard build time at a
#: size where construction cost is unmistakable (flat and Clos variants).
GUARD_BUILD_NODES = 4096
GUARD_DROP_FRACTION = 0.20


def _cluster_config_kwargs(extra: Dict[str, Any]) -> Dict[str, Any]:
    """Keep only the knobs the checked-out ClusterConfig understands."""
    from repro.runtime.cluster import ClusterConfig

    names = {f.name for f in dataclasses.fields(ClusterConfig)}
    return {k: v for k, v in extra.items() if k in names and v is not None}


def run_cell(nodes: int, days: float, seed: int, knobs: Dict[str, Any]) -> Dict[str, Any]:
    """Build + run one kernel cell in this process; return its record."""
    import resource

    from repro.experiments.config import SimulationConfig
    from repro.runtime.cluster import build_cluster

    horizon = days * 86400.0
    sim_config = SimulationConfig(
        node_count=nodes, detection="oracle", stationary_burn_in=0.0, seed=seed
    )
    hosts = sim_config.hosts(seed=seed)
    config = sim_config.cluster_config(seed=seed)
    applied = _cluster_config_kwargs(knobs)
    if applied:
        config = dataclasses.replace(config, **applied)

    t0 = time.perf_counter()
    cluster = build_cluster(hosts, config)
    t1 = time.perf_counter()
    cluster.sim.run(until=horizon)
    t2 = time.perf_counter()
    events = cluster.sim.events_fired

    # Metadata ingest: one block per node at replication 3, timed on its
    # own so ``build_seconds`` stays comparable with schema-1 records.
    from repro.core.placement import RandomPlacement

    t_ingest = time.perf_counter()
    cluster.namenode.create_file(
        "bench-ingest",
        num_blocks=nodes,
        block_size=config.block_size_bytes,
        replication=3,
        policy=RandomPlacement(),
        gamma=1.0,
        rng=cluster.rng,
    )
    ingest_seconds = time.perf_counter() - t_ingest
    cluster.stop()

    build_breakdown: Dict[str, Any] = {}
    profile = getattr(cluster, "build_profile", None)
    if profile is not None:
        build_breakdown = profile.as_dict()
    build_breakdown["ingest_seconds"] = round(ingest_seconds, 3)
    build_breakdown["ingest_blocks"] = nodes

    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # ru_maxrss is bytes on macOS, KiB on Linux
        rss_kb /= 1024.0
    run_seconds = t2 - t1
    return {
        "nodes": nodes,
        "topology": applied.get("topology", "flat"),
        "days": days,
        "seed": seed,
        "build_seconds": round(t1 - t0, 3),
        "run_seconds": round(run_seconds, 3),
        "total_seconds": round(t2 - t0, 3),
        "events": events,
        "events_per_sec": round(events / run_seconds, 1) if run_seconds > 0 else 0.0,
        "peak_rss_mb": round(rss_kb / 1024.0, 1),
        "build_breakdown": build_breakdown,
        "knobs": applied,
    }


def run_cell_subprocess(
    nodes: int, days: float, seed: int, knobs: Dict[str, Any]
) -> Dict[str, Any]:
    """Run one cell in a fresh interpreter (isolated peak RSS)."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    cmd = [
        sys.executable,
        os.path.abspath(__file__),
        "--run-cell",
        str(nodes),
        "--days",
        str(days),
        "--seed",
        str(seed),
        "--knobs",
        json.dumps(knobs),
    ]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(
            f"cell nodes={nodes} failed (exit {proc.returncode}):\n{proc.stderr}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def render_table(record: Dict[str, Any]) -> str:
    lines = []
    header = (
        f"{'section':<10} {'nodes':>8} {'topo':>6} {'days':>5} {'build_s':>9} "
        f"{'run_s':>9} {'events':>10} {'ev/s':>10} {'rss_mb':>8}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for section in ("baseline", "current"):
        block = record.get(section)
        if not block:
            continue
        for cell in block["cells"]:
            lines.append(
                f"{section:<10} {cell['nodes']:>8} "
                f"{cell.get('topology', 'flat'):>6} {cell['days']:>5} "
                f"{cell['build_seconds']:>9.2f} {cell['run_seconds']:>9.2f} "
                f"{cell['events']:>10} {cell['events_per_sec']:>10.1f} "
                f"{cell['peak_rss_mb']:>8.1f}"
            )
    speedup = record.get("speedup_events_per_sec_16k")
    if speedup is not None:
        lines.append(f"speedup (16k cell, events/sec, current vs baseline): {speedup}x")
    build_speedup = record.get("speedup_build_seconds_16k")
    if build_speedup is not None:
        lines.append(
            f"speedup (16k cell, build time, baseline vs current): {build_speedup}x"
        )
    return "\n".join(lines) + "\n"


def _find_cell(
    block: Optional[Dict[str, Any]], nodes: int, topology: str = "flat"
) -> Optional[Dict[str, Any]]:
    if not block:
        return None
    for cell in block.get("cells", []):
        if cell["nodes"] == nodes and cell.get("topology", "flat") == topology:
            return cell
    return None


def guard(record: Dict[str, Any], baseline_path: str) -> int:
    """Fail (exit 1) on a >20% regression vs the committed record.

    Three gates: events/sec on the smoke cell (run-loop throughput),
    build_seconds on the flat 4k cell (build-kernel speed), and
    total_seconds on the Clos 4k cell (hierarchical allocator + rack-aware
    ingest). A gate is skipped with a note when either record lacks its
    cell.
    """
    with open(baseline_path, encoding="utf-8") as fh:
        committed = json.load(fh)
    failed = False

    ref = _find_cell(committed.get("current"), SMOKE_NODES)
    measured = _find_cell(record.get("current"), SMOKE_NODES)
    if ref is None or measured is None:
        print("guard: smoke cell missing from record; skipping events/sec gate")
    else:
        floor = ref["events_per_sec"] * (1.0 - GUARD_DROP_FRACTION)
        verdict = "OK" if measured["events_per_sec"] >= floor else "REGRESSION"
        failed |= verdict != "OK"
        print(
            f"guard: smoke cell {measured['events_per_sec']:.1f} ev/s vs committed "
            f"{ref['events_per_sec']:.1f} ev/s (floor {floor:.1f}) -> {verdict}"
        )

    ref = _find_cell(committed.get("current"), GUARD_BUILD_NODES)
    measured = _find_cell(record.get("current"), GUARD_BUILD_NODES)
    if ref is None or measured is None:
        print("guard: build cell missing from record; skipping build-time gate")
    else:
        ceiling = ref["build_seconds"] * (1.0 + GUARD_DROP_FRACTION)
        verdict = "OK" if measured["build_seconds"] <= ceiling else "REGRESSION"
        failed |= verdict != "OK"
        print(
            f"guard: build cell {measured['build_seconds']:.2f}s vs committed "
            f"{ref['build_seconds']:.2f}s (ceiling {ceiling:.2f}s) -> {verdict}"
        )

    ref = _find_cell(committed.get("current"), GUARD_BUILD_NODES, topology="clos")
    measured = _find_cell(record.get("current"), GUARD_BUILD_NODES, topology="clos")
    if ref is None or measured is None:
        print("guard: clos cell missing from record; skipping topology gate")
    else:
        ceiling = ref["total_seconds"] * (1.0 + GUARD_DROP_FRACTION)
        verdict = "OK" if measured["total_seconds"] <= ceiling else "REGRESSION"
        failed |= verdict != "OK"
        print(
            f"guard: clos cell {measured['total_seconds']:.2f}s vs committed "
            f"{ref['total_seconds']:.2f}s (ceiling {ceiling:.2f}s) -> {verdict}"
        )
    return 1 if failed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--run-cell", type=int, default=None, help=argparse.SUPPRESS)
    parser.add_argument("--days", type=float, default=2.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--knobs", type=str, default="{}", help=argparse.SUPPRESS)
    parser.add_argument(
        "--smoke", action="store_true", help="only the 1k (throughput) and 4k (build) cells"
    )
    parser.add_argument("--full", action="store_true", help="add the 226k multi-day cell")
    parser.add_argument(
        "--label",
        choices=("baseline", "current"),
        default="current",
        help="record section to write the measured cells into",
    )
    parser.add_argument(
        "--pregen-horizon",
        type=float,
        default=None,
        help="ClusterConfig.pregen_horizon to apply (ignored if the field is absent)",
    )
    parser.add_argument("--out", type=str, default=None, help="JSON record path (merged)")
    parser.add_argument("--table-out", type=str, default=None)
    parser.add_argument(
        "--guard",
        type=str,
        default=None,
        metavar="BASELINE_JSON",
        help="compare the smoke cell against this committed record; "
        f"exit non-zero on a >{GUARD_DROP_FRACTION:.0%} events/sec drop",
    )
    args = parser.parse_args()

    if args.run_cell is not None:
        cell = run_cell(args.run_cell, args.days, args.seed, json.loads(args.knobs))
        print(json.dumps(cell))
        return 0

    knobs = {"pregen_horizon": args.pregen_horizon}
    cells = (
        [
            (SMOKE_NODES, 2.0, {}),
            (GUARD_BUILD_NODES, 2.0, {}),
            (GUARD_BUILD_NODES, 2.0, CLOS_KNOBS),
        ]
        if args.smoke
        else list(CELLS)
    )
    if args.full:
        cells.append(FULL_CELL)

    measured: List[Dict[str, Any]] = []
    for nodes, days, cell_knobs in cells:
        topo = cell_knobs.get("topology", "flat")
        print(f"running cell nodes={nodes} topology={topo} days={days} ...", flush=True)
        cell = run_cell_subprocess(nodes, days, args.seed, {**knobs, **cell_knobs})
        print(
            f"  build {cell['build_seconds']:.2f}s  run {cell['run_seconds']:.2f}s  "
            f"{cell['events']} events  {cell['events_per_sec']:.1f} ev/s  "
            f"{cell['peak_rss_mb']:.1f} MB",
            flush=True,
        )
        measured.append(cell)

    record: Dict[str, Any] = {}
    if args.out and os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            record = json.load(fh)
    record["schema"] = 2
    record["machine"] = {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    record[args.label] = {"cells": measured}

    base_16k = _find_cell(record.get("baseline"), 16384)
    cur_16k = _find_cell(record.get("current"), 16384)
    if base_16k and cur_16k and base_16k["events_per_sec"] > 0:
        record["speedup_events_per_sec_16k"] = round(
            cur_16k["events_per_sec"] / base_16k["events_per_sec"], 2
        )
    if base_16k and cur_16k and cur_16k["build_seconds"] > 0:
        record["speedup_build_seconds_16k"] = round(
            base_16k["build_seconds"] / cur_16k["build_seconds"], 2
        )

    table = render_table(record)
    print(table, end="")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if args.table_out:
        with open(args.table_out, "w", encoding="utf-8") as fh:
            fh.write(table)

    if args.guard:
        return guard(record, args.guard)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
