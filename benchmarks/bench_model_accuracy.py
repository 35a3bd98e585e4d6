"""Ablation A4: accuracy of formula (5) against simulation.

Two comparisons:

1. model vs a Monte-Carlo replay of the literal attempt process (validates
   the derivation itself);
2. model vs the *full cluster simulator*: per-node throughput of an
   isolated node processing its local blocks under injected interruptions
   should match 1/E[T] (validates that the simulator implements the
   semantics the model assumes).
"""

import math

import pytest

from benchmarks.conftest import FULL, run_once
from repro.availability.generator import build_group_hosts, table2_groups
from repro.core.model import expected_task_time, monte_carlo_task_time
from repro.core.placement import RandomPlacement
from repro.mapreduce.job import JobConf, MapJob
from repro.runtime.cluster import ClusterConfig, build_cluster
from repro.util.rng import RandomSource
from repro.util.tables import format_table

GAMMA = 12.0


def test_model_vs_monte_carlo(benchmark):
    samples = 20000 if FULL else 4000

    def run():
        rows = []
        for group in table2_groups():
            lam = group.arrival_rate
            predicted = expected_task_time(GAMMA, lam, group.service_mean)
            stats = monte_carlo_task_time(
                GAMMA, lam, RandomSource(1).substream(group.name),
                mu=group.service_mean, samples=samples,
            )
            rows.append((group.name, predicted, stats.mean, stats.std / math.sqrt(stats.count)))
        return rows

    rows = run_once(benchmark, run)
    table = [
        [name, f"{pred:.2f}", f"{measured:.2f}", f"{(measured / pred - 1) * 100:+.1f}%"]
        for name, pred, measured, _se in rows
    ]
    print()
    print(format_table(["group", "E[T] formula 5", "Monte-Carlo", "error"], table,
                       title="Ablation A4.1: model vs literal attempt process"))
    for name, pred, measured, se in rows:
        assert abs(measured - pred) < 4 * se + 0.05 * pred, name


def test_model_vs_cluster_simulator(benchmark):
    """One interrupted node processing blocks serially: makespan ~ m*E[T]."""
    blocks = 120 if FULL else 40

    def run():
        rows = []
        for group in table2_groups():
            host = build_group_hosts(1, 1.0, groups=[group])[0]
            cluster = build_cluster(
                [host],
                ClusterConfig(seed=5, detection="oracle", speculation_enabled=False),
                default_gamma=GAMMA,
            )
            f = cluster.client.copy_from_local(
                "in", num_blocks=blocks, policy=RandomPlacement(), gamma=GAMMA
            )
            job = MapJob.uniform(JobConf(), f, GAMMA)
            cluster.jobtracker.submit(job)
            cluster.run_until_job_done()
            predicted = blocks * expected_task_time(GAMMA, group.arrival_rate, group.service_mean)
            rows.append((group.name, predicted, job.makespan))
        return rows

    rows = run_once(benchmark, run)
    table = [
        [name, f"{pred:.0f}", f"{measured:.0f}", f"{(measured / pred - 1) * 100:+.1f}%"]
        for name, pred, measured in rows
    ]
    print()
    print(format_table(
        ["group", f"{('120' if FULL else '40')} blocks x E[T]", "simulated makespan", "error"],
        table,
        title="Ablation A4.2: model vs full cluster simulator (single node)",
    ))
    for name, pred, measured in rows:
        # One sample path of a heavy-tailed sum: generous band.
        assert measured == pytest.approx(pred, rel=0.5), name
