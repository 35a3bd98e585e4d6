"""Ablation A1: oracle (lambda, mu) vs heartbeat-estimated parameters.

Algorithm 1 takes "the measured interruption arrival rate lambda [and]
interruption service time mu" as inputs. How much does ADAPT lose when the
Performance Predictor must *learn* them from heartbeats instead of knowing
them exactly? We warm the estimators for 10 simulated minutes (the paper's
NameNode accumulates them continuously in production), then ingest and run.
"""

from benchmarks.conftest import FULL, run_once
from repro.experiments.config import EmulationConfig
from repro.runtime.runner import run_map_phase
from repro.util.tables import format_table


def test_oracle_vs_estimated(benchmark):
    base = EmulationConfig(seed=3) if FULL else EmulationConfig(
        node_count=32, blocks_per_node=10, seed=3
    )
    hosts = base.hosts()

    def run():
        results = {}
        results["existing"] = run_map_phase(
            hosts, base.cluster_config(), "existing", blocks_per_node=base.blocks_per_node
        )
        results["adapt (oracle)"] = run_map_phase(
            hosts, base.cluster_config(), "adapt", blocks_per_node=base.blocks_per_node
        )
        estimated_config = base.cluster_config()
        from dataclasses import replace

        estimated_config = replace(estimated_config, oracle_estimates=False)
        results["adapt (estimated)"] = run_map_phase(
            hosts,
            estimated_config,
            "adapt",
            blocks_per_node=base.blocks_per_node,
            warmup_seconds=600.0,
        )
        return results

    results = run_once(benchmark, run)
    rows = [
        [name, f"{r.elapsed:.1f}", f"{r.data_locality:.3f}"]
        for name, r in results.items()
    ]
    print()
    print(format_table(["configuration", "elapsed (s)", "locality"], rows,
                       title="Ablation A1: oracle vs heartbeat-estimated parameters"))

    # Estimated ADAPT must retain most of the oracle's win over existing.
    existing = results["existing"].elapsed
    oracle = results["adapt (oracle)"].elapsed
    estimated = results["adapt (estimated)"].elapsed
    assert oracle < existing
    assert estimated < existing  # still clearly better than random
    # And be within 2x of the oracle's improvement.
    assert (existing - estimated) > 0.4 * (existing - oracle)
