#!/usr/bin/env python3
"""Synthetic SETI@home-style availability traces (the paper's Table 1 data).

Generates a volunteer-host population from the Table-1-calibrated model,
reports the pooled interruption statistics next to the paper's values, and
shows the per-host heterogeneity (the CoV >> 1 property that motivates
availability-aware placement), then runs a scaled-down Figure 5 point on
those hosts.

Run: ``python examples/volunteer_traces.py [--nodes 400]``
"""

import argparse

from repro.availability.seti import (
    CALIBRATED_TABLE1_PARAMS,
    TABLE1_DURATION_COV,
    TABLE1_DURATION_MEAN,
    TABLE1_MTBI_COV,
    TABLE1_MTBI_MEAN,
    SetiTraceGenerator,
)
from repro.availability.traces import pooled_summary
from repro.experiments.config import SimulationConfig, Strategy
from repro.experiments.largescale import run_simulation_point
from repro.util.rng import RandomSource
from repro.util.stats import percentile
from repro.util.tables import format_table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=400)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    generator = SetiTraceGenerator(
        CALIBRATED_TABLE1_PARAMS, RandomSource(args.seed).substream("example")
    )

    # -- Table 1 -----------------------------------------------------------
    horizon = 1.5 * 365 * 86400.0  # the FTA collection window
    traces = generator.sample_traces(args.nodes, horizon)
    stats = pooled_summary(traces)
    rows = [
        ["MTBI (s)", f"{stats['mtbi'].mean:.0f}", f"{stats['mtbi'].cov:.2f}",
         f"{TABLE1_MTBI_MEAN:.0f}", f"{TABLE1_MTBI_COV:.2f}"],
        ["duration (s)", f"{stats['duration'].mean:.0f}", f"{stats['duration'].cov:.2f}",
         f"{TABLE1_DURATION_MEAN:.0f}", f"{TABLE1_DURATION_COV:.2f}"],
    ]
    print(format_table(
        ["quantity", "mean (ours)", "CoV (ours)", "mean (paper)", "CoV (paper)"],
        rows,
        title=f"Table 1 reproduction: pooled stats over {args.nodes} hosts x 1.5 years",
    ))

    # -- heterogeneity ------------------------------------------------------
    hosts = generator.sample_hosts(args.nodes)
    mtbis = sorted(h.mtbi for h in hosts)
    ups = sorted(t.uptime_fraction() for t in traces)
    rows = [
        ["per-host MTBI (s)", f"{percentile(mtbis, 10):.0f}", f"{percentile(mtbis, 50):.0f}",
         f"{percentile(mtbis, 90):.0f}"],
        ["per-host uptime fraction", f"{percentile(ups, 10):.2f}", f"{percentile(ups, 50):.2f}",
         f"{percentile(ups, 90):.2f}"],
    ]
    print()
    print(format_table(["quantity", "p10", "p50", "p90"], rows,
                       title="Host heterogeneity (why one placement does not fit all)"))

    # -- a Figure 5 point -----------------------------------------------------
    small = SimulationConfig(node_count=min(args.nodes, 256), tasks_per_node=20, seed=args.seed)
    print()
    rows = []
    for strategy in (Strategy("existing", 1), Strategy("adapt", 1), Strategy("adapt", 2)):
        result = run_simulation_point(small, strategy)
        o = result.overhead_ratios
        rows.append([strategy.label, f"{result.elapsed:.0f}",
                     f"{o['migration']:.2f}", f"{o['recovery']:.2f}", f"{o['total']:.2f}"])
    print(format_table(
        ["strategy", "elapsed (s)", "migration", "recovery", "total overhead"],
        rows,
        title=f"Trace-driven map phase on {small.node_count} volunteer hosts (Fig 5 point)",
    ))


if __name__ == "__main__":
    main()
