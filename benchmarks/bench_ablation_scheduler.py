"""Ablation A3: availability-aware scheduling (the paper's future work).

Measures the 2x2 of {placement} x {scheduler} on the emulation mix. The
paper conjectures "there is a performance improvement space by developing
availability-aware MapReduce scheduling algorithms"; this quantifies it on
top of both placements.
"""

from benchmarks.conftest import emulation_base, emulation_repetitions, run_once
from repro.mapreduce.job import JobConf
from repro.runtime.runner import run_map_phase
from repro.util.stats import mean
from repro.util.tables import format_table


def test_scheduler_matrix(benchmark):
    reps = emulation_repetitions()

    def run():
        cells = {}
        for policy in ("existing", "adapt"):
            for scheduler in ("locality", "availability"):
                elapsed = []
                for rep in range(reps):
                    base = emulation_base(seed=300 + rep)
                    result = run_map_phase(
                        base.hosts(),
                        base.cluster_config(),
                        policy,
                        blocks_per_node=base.blocks_per_node,
                        job_conf=JobConf(scheduler=scheduler),
                    )
                    elapsed.append(result.elapsed)
                cells[(policy, scheduler)] = mean(elapsed)
        return cells

    cells = run_once(benchmark, run)
    rows = [
        [policy, scheduler, f"{value:.1f}"]
        for (policy, scheduler), value in sorted(cells.items())
    ]
    print()
    print(format_table(["placement", "scheduler", "mean elapsed (s)"], rows,
                       title="Ablation A3: availability-aware scheduling"))

    # Placement is the first-order effect: ADAPT placement with the stock
    # scheduler beats stock placement even with the smarter scheduler.
    assert cells[("adapt", "locality")] < cells[("existing", "availability")]
    # The scheduler extension must not catastrophically hurt either way.
    assert cells[("adapt", "availability")] < 1.5 * cells[("adapt", "locality")]
    benchmark.extra_info["cells"] = {f"{p}/{s}": v for (p, s), v in cells.items()}
