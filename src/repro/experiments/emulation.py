"""Figures 3 & 4: the emulated non-dedicated environment (Section V.B).

Three sweeps, each producing both the elapsed-time panel (Figure 3) and
the locality panel (Figure 4) from the same runs:

* ``sweep_interrupted_ratio`` — 1/4, 1/2, 3/4 of the nodes interrupted
  (Figures 3a / 4a);
* ``sweep_bandwidth`` — 4 to 32 Mb/s (Figures 3b / 4b);
* ``sweep_node_count`` — 32 to 256 nodes (Figures 3c / 4c).

Every scenario is repeated ``repetitions`` times with derived seeds and
averaged, mirroring the paper's 10-run means. Within one repetition the
same seed drives every strategy, so strategies face identical interruption
realisations (the random streams are keyed per node, not shared).

Cells are independent, so every sweep accepts a
:class:`~repro.experiments.parallel.SweepExecutor` to fan them out over
worker processes and/or serve them from the run cache; results are
reassembled in sweep order, byte-identical to a serial run.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.config import EMULATION_STRATEGIES, EmulationConfig, Strategy
from repro.experiments.parallel import CellSpec, SweepExecutor, run_sweep
from repro.experiments.results import SweepResult
from repro.runtime.runner import MapPhaseResult, run_map_phase
from repro.simulator.scenarios import ChaosCampaign

#: Paper sweep values.
RATIO_VALUES = (0.25, 0.5, 0.75)
BANDWIDTH_VALUES = (4.0, 8.0, 16.0, 32.0)
NODE_COUNT_VALUES = (32, 64, 128, 256)


def run_emulation_point(
    config: EmulationConfig,
    strategy: Strategy,
    seed: Optional[int] = None,
    trace_out: Optional[str] = None,
    executor: Optional[SweepExecutor] = None,
    audit: Optional[str] = None,
    audit_out: Optional[str] = None,
    chaos: Optional[ChaosCampaign] = None,
) -> MapPhaseResult:
    """Run one (configuration, strategy) cell once.

    ``trace_out`` exports the run's bus-event stream as JSON Lines.
    ``audit`` / ``audit_out`` enable cross-layer invariant auditing and
    export its report. ``chaos`` layers a scripted campaign on the run.
    With an ``executor`` the cell goes through its run cache; tracing,
    auditing and chaos always run live — they are side effects (or extra
    result surface) the cache key does not cover.
    """
    run_seed = config.seed if seed is None else seed
    if (
        executor is not None
        and trace_out is None
        and audit is None
        and audit_out is None
        and chaos is None
    ):
        return executor.run_cell(CellSpec("emulation", config, strategy, run_seed))
    hosts = config.hosts()
    return run_map_phase(
        hosts=hosts,
        config=config.cluster_config(seed=run_seed),
        policy=strategy.policy,
        replication=strategy.replication,
        blocks_per_node=config.blocks_per_node,
        trace_out=trace_out,
        audit=audit,
        audit_out=audit_out,
        chaos=chaos,
    )


def _sweep(
    name: str,
    field: str,
    base: Optional[EmulationConfig],
    values: Sequence[float],
    strategies: Sequence[Strategy],
    repetitions: int,
    executor: Optional[SweepExecutor],
) -> SweepResult:
    config = base if base is not None else EmulationConfig()
    points = ((float(value), value, config.with_(**{field: value})) for value in values)
    return run_sweep("emulation", name, field, points, strategies, repetitions, executor)


def sweep_interrupted_ratio(
    base: Optional[EmulationConfig] = None,
    values: Sequence[float] = RATIO_VALUES,
    strategies: Sequence[Strategy] = tuple(EMULATION_STRATEGIES),
    repetitions: int = 1,
    executor: Optional[SweepExecutor] = None,
) -> SweepResult:
    """Figures 3(a) / 4(a): vary the ratio of interrupted nodes."""
    return _sweep(
        "fig3a/4a", "interrupted_ratio", base, values, strategies, repetitions, executor
    )


def sweep_bandwidth(
    base: Optional[EmulationConfig] = None,
    values: Sequence[float] = BANDWIDTH_VALUES,
    strategies: Sequence[Strategy] = tuple(EMULATION_STRATEGIES),
    repetitions: int = 1,
    executor: Optional[SweepExecutor] = None,
) -> SweepResult:
    """Figures 3(b) / 4(b): vary the network bandwidth."""
    return _sweep("fig3b/4b", "bandwidth_mbps", base, values, strategies, repetitions, executor)


def sweep_node_count(
    base: Optional[EmulationConfig] = None,
    values: Sequence[int] = NODE_COUNT_VALUES,
    strategies: Sequence[Strategy] = tuple(EMULATION_STRATEGIES),
    repetitions: int = 1,
    executor: Optional[SweepExecutor] = None,
) -> SweepResult:
    """Figures 3(c) / 4(c): vary the cluster size."""
    config = base if base is not None else EmulationConfig()
    points = ((float(value), value, config.with_(node_count=int(value))) for value in values)
    return run_sweep(
        "emulation", "fig3c/4c", "node_count", points, strategies, repetitions, executor
    )
