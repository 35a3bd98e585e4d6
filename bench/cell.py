"""One benchmark pass: run every cell of a workload once, print JSON.

A pass runs each of the workload's strategies at each cell seed of the
run seed. ``bench/run.py`` starts this in a fresh process per pass, so
each pass has its own peak RSS and no warm state from the previous one::

    python bench/cell.py --workload emu-fig3 --seed 1 [--trace]

``--trace`` records layer spans (see ``tracing.py``). The single output
line is a JSON object; a cell that raises is reported with its error,
not fatal.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import sys
import time
from typing import Any, Dict, List, Optional

import tracing
from workloads import WORKLOADS, CellRun, cell_key, run_cell


def _cell_record(key: str, run: CellRun) -> Dict[str, Any]:
    record: Dict[str, Any] = {"cell": key, "digest": run.digest, "wall_s": run.wall_s}
    for field in dataclasses.fields(run):
        if field.name != "result":
            record[field.name] = getattr(run, field.name)
    return record


def run_pass(workload_name: str, seed: int, trace: bool) -> Dict[str, Any]:
    """Run the workload's cells in order; with ``trace``, inside spans."""
    workload = WORKLOADS[workload_name]
    tracer: Optional[tracing.Tracer] = tracing.Tracer() if trace else None
    undo = tracing.install(tracer) if tracer is not None else None
    cells: List[Dict[str, Any]] = []
    start = time.perf_counter()
    try:
        for cell_seed in workload.cell_seeds(seed):
            for strategy in workload.cells:
                key = cell_key(strategy, cell_seed)
                try:
                    if tracer is None:
                        run = run_cell(workload, strategy, cell_seed)
                    else:
                        run = run_cell(workload, strategy, cell_seed, call=tracer.call)
                except Exception as exc:  # a failing cell is a measured outcome
                    cells.append({"cell": key, "error": f"{type(exc).__name__}: {exc}"})
                else:
                    cells.append(_cell_record(key, run))
    finally:
        wall = time.perf_counter() - start
        if undo is not None:
            undo()
    record: Dict[str, Any] = {"wall_s": wall, "cells": cells}
    if tracer is not None:
        record["trace"] = {
            "self_s": tracer.self_s,
            "calls": tracer.calls,
            "counts": dict(tracer.counts),
            "fired": dict(tracer.fired),
            "unattributed_s": wall - tracer.attributed_s,
        }
    return record


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    record = run_pass(args.workload, args.seed, args.trace)
    # ru_maxrss is in KiB on Linux.
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
