"""Figure 5 and Table 1: the large-scale trace-driven simulation (Section V.C).

The paper replays SETI@home Failure Trace Archive data over 1024-16384
simulated nodes and reports per-component overhead ratios (rework,
recovery, migration, misc) against the aggregate failure-free execution
time. We draw hosts from the Table-1-calibrated synthetic SETI model (see
:mod:`repro.availability.seti`) and run the same sweeps:

* ``sweep_sim_bandwidth`` — Figure 5(a): 4 to 32 Mb/s;
* ``sweep_sim_block_size`` — Figure 5(b): 16 MB to 256 MB blocks;
* ``sweep_sim_node_count`` — Figure 5(c): 1024 to 16384 nodes.

``table1_statistics`` regenerates Table 1 itself: pooled MTBI/duration
statistics of the synthetic traces, to be compared against the paper's
numbers.

Each sweep accepts a :class:`~repro.experiments.parallel.SweepExecutor`
— the 16384-node Figure 5(c) points are the slowest cells in the whole
harness, and they parallelise perfectly (cells share nothing).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.availability.seti import SetiTraceGenerator
from repro.availability.traces import pooled_summary
from repro.experiments.config import SIMULATION_STRATEGIES, SimulationConfig, Strategy
from repro.experiments.parallel import CellSpec, SweepExecutor, SweepPoint, run_sweep
from repro.experiments.results import SweepResult
from repro.runtime.runner import MapPhaseResult, run_map_phase
from repro.util.rng import RandomSource
from repro.util.stats import SummaryStats
from repro.util.units import MB

#: Paper sweep values.
SIM_BANDWIDTH_VALUES = (4.0, 8.0, 16.0, 32.0)
SIM_BLOCK_SIZE_VALUES = (16 * MB, 32 * MB, 64 * MB, 128 * MB, 256 * MB)
SIM_NODE_COUNT_VALUES = (1024, 2048, 4096, 8192, 16384)


def table1_statistics(
    node_count: int = 4096,
    horizon: float = 0.5 * 365 * 86400.0,
    seed: int = 0,
    config: Optional[SimulationConfig] = None,
) -> Dict[str, SummaryStats]:
    """Regenerate Table 1 from the synthetic SETI trace model.

    Materialises ``node_count`` host traces over ``horizon`` seconds and
    pools their interruption inter-arrivals and durations. Larger counts
    and horizons tighten the heavy-tail estimates at linear cost.
    """
    base = config if config is not None else SimulationConfig(seed=seed)
    generator = SetiTraceGenerator(
        base.seti_params(), RandomSource(seed).substream("table1")
    )
    traces = generator.sample_traces(node_count, horizon)
    return pooled_summary(traces)


def run_simulation_point(
    config: SimulationConfig,
    strategy: Strategy,
    seed: Optional[int] = None,
    executor: Optional[SweepExecutor] = None,
) -> MapPhaseResult:
    """Run one (configuration, strategy) cell of Figure 5 once."""
    run_seed = config.seed if seed is None else seed
    if executor is not None:
        return executor.run_cell(CellSpec("simulation", config, strategy, run_seed))
    hosts = config.hosts(seed=run_seed)
    return run_map_phase(
        hosts=hosts,
        config=config.cluster_config(seed=run_seed),
        policy=strategy.policy,
        replication=strategy.replication,
        blocks_per_node=config.tasks_per_node,
    )


def sweep_sim_bandwidth(
    base: Optional[SimulationConfig] = None,
    values: Sequence[float] = SIM_BANDWIDTH_VALUES,
    strategies: Sequence[Strategy] = tuple(SIMULATION_STRATEGIES),
    repetitions: int = 1,
    executor: Optional[SweepExecutor] = None,
) -> SweepResult:
    """Figure 5(a): overhead breakdown vs network bandwidth."""
    config = base if base is not None else SimulationConfig()
    points = ((float(value), value, config.with_(bandwidth_mbps=value)) for value in values)
    return run_sweep(
        "simulation", "fig5a", "bandwidth_mbps", points, strategies, repetitions, executor
    )


def sweep_sim_block_size(
    base: Optional[SimulationConfig] = None,
    values: Sequence[float] = SIM_BLOCK_SIZE_VALUES,
    strategies: Sequence[Strategy] = tuple(SIMULATION_STRATEGIES),
    repetitions: int = 1,
    executor: Optional[SweepExecutor] = None,
) -> SweepResult:
    """Figure 5(b): overhead breakdown vs block size.

    The number of tasks shrinks as blocks grow (fixed input bytes per
    node), and gamma scales with the block size, as in the paper.
    """
    config = base if base is not None else SimulationConfig()

    def point(value: float) -> SweepPoint:
        block = int(value)
        # Keep per-node input constant: tasks_per_node scales inversely.
        scale = config.block_size_bytes / block
        tasks_per_node = max(config.tasks_per_node * scale, 1.0)
        return block / MB, block, config.with_(block_size_bytes=block, tasks_per_node=tasks_per_node)

    points = (point(value) for value in values)
    return run_sweep(
        "simulation", "fig5b", "block_size_mb", points, strategies, repetitions, executor
    )


def sweep_sim_node_count(
    base: Optional[SimulationConfig] = None,
    values: Sequence[int] = SIM_NODE_COUNT_VALUES,
    strategies: Sequence[Strategy] = tuple(SIMULATION_STRATEGIES),
    repetitions: int = 1,
    executor: Optional[SweepExecutor] = None,
) -> SweepResult:
    """Figure 5(c): overhead breakdown vs cluster size."""
    config = base if base is not None else SimulationConfig()
    points = ((float(value), value, config.with_(node_count=int(value))) for value in values)
    return run_sweep("simulation", "fig5c", "node_count", points, strategies, repetitions, executor)
