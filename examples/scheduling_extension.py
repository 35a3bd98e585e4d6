#!/usr/bin/env python3
"""Future-work extension: availability-aware *scheduling* on top of placement.

The paper's future work proposes "an availability-aware MapReduce job
scheduling strategy" to complement ADAPT's placement. This repository ships
one: a scheduler that steals pending blocks from the *least available*
holders first, draining doomed backlogs before the end-game (see
``repro.mapreduce.scheduler.AvailabilityAwareScheduler``).

This example measures all four combinations of {placement, scheduling} x
{availability-blind, availability-aware} on a wordcount job, a denser
workload than terasort.

Run: ``python examples/scheduling_extension.py``
"""

from repro.availability.generator import build_group_hosts
from repro.mapreduce.job import JobConf
from repro.runtime.cluster import ClusterConfig
from repro.runtime.runner import run_map_phase
from repro.util.tables import format_table
from repro.workloads import WordCountWorkload

NODES = 32
BLOCKS_PER_NODE = 8


def main() -> None:
    hosts = build_group_hosts(NODES, interrupted_ratio=0.5)
    config = ClusterConfig(seed=21)
    workload = WordCountWorkload()

    rows = []
    for policy in ("existing", "adapt"):
        for scheduler in ("locality", "availability"):
            result = run_map_phase(
                hosts,
                config,
                policy,
                blocks_per_node=BLOCKS_PER_NODE,
                workload=workload,
                job_conf=JobConf(name="wordcount", scheduler=scheduler),
            )
            rows.append([
                policy,
                scheduler,
                f"{result.elapsed:.1f}",
                f"{result.data_locality:.3f}",
                f"{result.overhead_ratios['total']:.3f}",
            ])
    print(format_table(
        ["placement", "scheduler", "elapsed (s)", "locality", "total overhead"],
        rows,
        title=f"Wordcount map phase, {NODES} nodes, half interrupted",
    ))
    print("\nPlacement does the heavy lifting (the paper's thesis); the")
    print("availability-aware scheduler adds a second-order improvement by")
    print("migrating doomed backlogs earlier.")


if __name__ == "__main__":
    main()
