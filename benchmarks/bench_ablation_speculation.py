"""Ablation A5: speculative execution's interaction with placement.

Speculation rescues tasks stranded on silently-dead nodes (the "duplicated
straggler execution" the paper charges to misc). How much of each policy's
performance depends on it? Expectation: the existing placement leans on
speculation much harder than ADAPT, because random placement strands more
work on doomed nodes.
"""

from benchmarks.conftest import emulation_base, emulation_repetitions, run_once
from repro.runtime.runner import run_map_phase
from repro.util.stats import mean
from repro.util.tables import format_table
from dataclasses import replace


def test_speculation_interaction(benchmark):
    reps = emulation_repetitions()

    def run():
        cells = {}
        for policy in ("existing", "adapt"):
            for spec in (True, False):
                elapsed = []
                for rep in range(reps):
                    base = emulation_base(seed=500 + rep)
                    config = replace(base.cluster_config(), speculation_enabled=spec)
                    result = run_map_phase(
                        base.hosts(), config, policy, blocks_per_node=base.blocks_per_node
                    )
                    elapsed.append(result.elapsed)
                cells[(policy, spec)] = mean(elapsed)
        return cells

    cells = run_once(benchmark, run)
    rows = [
        [policy, "on" if spec else "off", f"{value:.1f}"]
        for (policy, spec), value in sorted(cells.items())
    ]
    print()
    print(format_table(["placement", "speculation", "mean elapsed (s)"], rows,
                       title="Ablation A5: speculation x placement"))

    # ADAPT beats existing regardless of speculation: placement, not
    # straggler duplication, is the first-order effect.
    assert cells[("adapt", True)] < cells[("existing", True)]
    assert cells[("adapt", False)] < cells[("existing", False)]
    # Speculation changes either policy by less than ~2x in either
    # direction. (Reproduction finding: naive duplicate execution can
    # actually *hurt* the existing placement here — duplicated fetches
    # compete for the flaky holders' thin uplinks, echoing the pathology
    # LATE [19] was designed to fix.)
    for policy in ("existing", "adapt"):
        ratio = cells[(policy, False)] / cells[(policy, True)]
        assert 0.5 < ratio < 2.0, (policy, ratio)
    existing_loss = cells[("existing", False)] / cells[("existing", True)]
    adapt_loss = cells[("adapt", False)] / cells[("adapt", True)]
    print(f"\nslowdown from disabling speculation: existing {existing_loss:.2f}x, "
          f"adapt {adapt_loss:.2f}x")
