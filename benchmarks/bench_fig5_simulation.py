"""Figure 5: large-scale trace-driven simulation, overhead breakdowns.

Panels: (a) bandwidth, (b) block size, (c) cluster size. Series: existing
x{1,2,3}, naive x1, ADAPT x{1,2}. Metrics: per-component overhead ratios
(rework / recovery / migration / misc) against the aggregate failure-free
execution time.

Asserted paper shapes:
* overhead drops with more replicas and with more bandwidth;
* ADAPT(1) beats existing(1); ADAPT(2) is in the neighbourhood of
  existing(3) ("the same levels of performance with significantly improved
  storage space efficiency");
* ADAPT cuts the migration overhead vs existing at the same replication
  ("ADAPT constantly saves the migration cost by half or more" — we assert
  a >=35% cut to leave room for scale noise);
* misc's share grows with block size ("Misc overhead dominates the
  performance for larger block size").
"""

from benchmarks.conftest import (
    SIMULATION_STRATEGIES,
    run_once,
    simulation_bandwidth_values,
    simulation_base,
    simulation_block_values,
    simulation_node_values,
    sweep_executor,
)
from repro.experiments.largescale import (
    sweep_sim_bandwidth,
    sweep_sim_block_size,
    sweep_sim_node_count,
)
from repro.experiments.charts import stacked_overhead_chart
from repro.experiments.reporting import render_overhead_breakdown, render_sweep


def test_fig5a_bandwidth(benchmark):
    sweep = run_once(
        benchmark,
        lambda: sweep_sim_bandwidth(
            simulation_base(), values=simulation_bandwidth_values(),
            strategies=SIMULATION_STRATEGIES, executor=sweep_executor(),
        ),
    )
    print()
    print(render_overhead_breakdown(sweep, title="Figure 5(a): overhead vs bandwidth"))
    print()
    print(stacked_overhead_chart(sweep, sweep.x_values()[0]))
    for bw in sweep.x_values():
        existing1 = sweep.row(bw, "existingx1")
        adapt1 = sweep.row(bw, "adaptx1")
        assert adapt1.overhead("total") < existing1.overhead("total")
        # Migration cut at the same replication degree.
        assert adapt1.overhead("migration") < 0.65 * existing1.overhead("migration")
        # Replication monotonicity for the existing approach.
        assert sweep.row(bw, "existingx3").overhead("total") <= sweep.row(
            bw, "existingx1"
        ).overhead("total")
    # Total overhead decreases with bandwidth for the worst configuration.
    series = sweep.series("existingx1", "total")
    assert series[-1] < series[0]
    # ADAPT(2) in the neighbourhood of existing(3).
    mid = sweep.x_values()[1]
    assert sweep.row(mid, "adaptx2").overhead("total") < 1.6 * sweep.row(
        mid, "existingx3"
    ).overhead("total")


def test_fig5b_block_size(benchmark):
    sweep = run_once(
        benchmark,
        lambda: sweep_sim_block_size(
            simulation_base(), values=simulation_block_values(),
            strategies=SIMULATION_STRATEGIES, executor=sweep_executor(),
        ),
    )
    print()
    print(render_overhead_breakdown(sweep, title="Figure 5(b): overhead vs block size (MB)"))
    xs = sweep.x_values()
    small, large = xs[0], xs[-1]
    # The paper's 5(b) headline: "Misc overhead dominates the performance
    # for larger blocks size" — the misc component must rise steeply with
    # block size (duplicated straggler execution + end-of-phase idling).
    assert sweep.row(large, "existingx1").overhead("misc") > 2.0 * sweep.row(
        small, "existingx1"
    ).overhead("misc")

    def misc_share(x, key):
        row = sweep.row(x, key)
        total = row.overhead("total")
        return row.overhead("misc") / total if total > 0 else 0.0

    assert misc_share(large, "existingx1") > misc_share(small, "existingx1")
    # Larger blocks must not *improve* things materially (the paper finds
    # degradation; our stationary-window recovery floor flattens totals at
    # reduced scale — see EXPERIMENTS.md).
    assert sweep.row(large, "existingx1").overhead("total") > 0.75 * sweep.row(
        small, "existingx1"
    ).overhead("total")
    # ADAPT helps little at large blocks (paper: "helps little to benefit
    # the overall performance" there) but must still not be worse by much.
    assert sweep.row(large, "adaptx1").overhead("total") < 1.1 * sweep.row(
        large, "existingx1"
    ).overhead("total")


def test_fig5c_node_count(benchmark):
    sweep = run_once(
        benchmark,
        lambda: sweep_sim_node_count(
            simulation_base(), values=simulation_node_values(),
            strategies=SIMULATION_STRATEGIES, executor=sweep_executor(),
        ),
    )
    print()
    print(render_overhead_breakdown(sweep, title="Figure 5(c): overhead vs cluster size"))
    for n in sweep.x_values():
        existing1 = sweep.row(n, "existingx1")
        adapt1 = sweep.row(n, "adaptx1")
        assert adapt1.overhead("total") < existing1.overhead("total")
        assert adapt1.overhead("migration") < 0.65 * existing1.overhead("migration")
    # Elapsed-time summary, like the paper's companion narrative.
    print()
    print(render_sweep(sweep, "elapsed", title="Figure 5(c) companion: elapsed seconds"))
