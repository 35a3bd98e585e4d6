"""Figure 4: data locality in the emulated environment.

Same sweeps as Figure 3, reporting the ratio of local tasks to all tasks.
Paper shapes asserted: ADAPT's locality is at least the existing
approach's everywhere (1 replica); the existing 1-replica locality dips
hardest at ratio 1/2 ("the system has the highest availability variance
when 1/2 nodes are interrupted"); ADAPT keeps a locality edge even at the
highest bandwidth ("a constant advantage of data locality").
"""

from benchmarks.conftest import (
    EMULATION_STRATEGIES,
    emulation_bandwidth_values,
    emulation_base,
    emulation_node_values,
    emulation_repetitions,
    run_once,
    sweep_executor,
)
from repro.experiments.emulation import (
    sweep_bandwidth,
    sweep_interrupted_ratio,
    sweep_node_count,
)
from repro.experiments.reporting import render_sweep


def test_fig4a_interrupted_ratio(benchmark):
    sweep = run_once(
        benchmark,
        lambda: sweep_interrupted_ratio(
            emulation_base(), values=(0.25, 0.5, 0.75), strategies=EMULATION_STRATEGIES,
            repetitions=emulation_repetitions(), executor=sweep_executor(),
        ),
    )
    print()
    print(render_sweep(sweep, "locality", title="Figure 4(a): locality vs interrupted ratio"))
    for ratio in sweep.x_values():
        assert (
            sweep.row(ratio, "adaptx1").locality
            >= sweep.row(ratio, "existingx1").locality - 0.02
        )
    # ADAPT's locality is stable across ratios (paper: "stable data
    # locality regardless of the interrupted nodes ratio").
    adapt = sweep.series("adaptx1", "locality")
    assert max(adapt) - min(adapt) < 0.12


def test_fig4b_bandwidth(benchmark):
    sweep = run_once(
        benchmark,
        lambda: sweep_bandwidth(
            emulation_base(), values=emulation_bandwidth_values(), strategies=EMULATION_STRATEGIES,
            repetitions=emulation_repetitions(), executor=sweep_executor(),
        ),
    )
    print()
    print(render_sweep(sweep, "locality", title="Figure 4(b): locality vs bandwidth"))
    # Constant locality advantage for ADAPT even at high bandwidth.
    hi = sweep.x_values()[-1]
    assert sweep.row(hi, "adaptx1").locality >= sweep.row(hi, "existingx1").locality


def test_fig4c_node_count(benchmark):
    sweep = run_once(
        benchmark,
        lambda: sweep_node_count(
            emulation_base(), values=emulation_node_values(), strategies=EMULATION_STRATEGIES,
            repetitions=emulation_repetitions(), executor=sweep_executor(),
        ),
    )
    print()
    print(render_sweep(sweep, "locality", title="Figure 4(c): locality vs cluster size"))
    for nodes in sweep.x_values():
        assert (
            sweep.row(nodes, "adaptx1").locality
            >= sweep.row(nodes, "existingx1").locality - 0.02
        )
