"""The benchmark's workloads and the phase-split cell driver.

A *workload* is one experiment configuration, the (policy, replication)
strategies it compares, and how many cell seeds a pass runs them at. A
*cell* is one strategy at one cell seed: one complete experiment point,
run phase by phase through the public API so each phase can be timed on
its own:

1. set-up: ``config.hosts()``, ``build_cluster``, ``sim.run(until=0.0)``;
2. ingest: ``client.copy_from_local``;
3. map phase: ``MapJob`` plus ``jobtracker.submit``, then
   ``run_until_job_done``;
4. report: ``metrics.breakdown``, then ``stop()``.

:func:`run_cell` reproduces :func:`repro.runtime.runner.run_map_phase`
step for step, so its :class:`MapPhaseResult` is identical to what
``run_emulation_point`` / ``run_simulation_point`` return for the same
cell (``test_bench.py`` pins this).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple, Union

from repro.core.placement import make_policy
from repro.experiments.config import EmulationConfig, SimulationConfig, Strategy
from repro.experiments.parallel import result_to_jsonable
from repro.mapreduce.job import JobConf, MapJob
from repro.runtime.cluster import build_cluster
from repro.runtime.runner import MapPhaseResult
from repro.workloads.terasort import TerasortWorkload

ExperimentConfig = Union[EmulationConfig, SimulationConfig]

#: Seed every workload runs at unless ``--seed`` says otherwise.
DEFAULT_SEED = 1


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a config and the cells a pass runs over it.

    Why each workload exists is recorded in ``BENCHMARK.json``.
    """

    name: str
    #: "emulation" (EmulationConfig, Figure 3) or "simulation"
    #: (SimulationConfig, Figure 5).
    kind: str
    #: Config fields that differ from the dataclass defaults.
    knobs: Dict[str, Any]
    cells: Tuple[Strategy, ...]
    #: Cell seeds per pass. The work a cell does depends on its seed, so
    #: a pass sums over enough of them that two run seeds cost alike.
    seeds_per_pass: int
    #: Invariant audit mode forced on every cell (None = config default).
    audit: Optional[str] = None

    def cell_seeds(self, seed: int) -> Tuple[int, ...]:
        """The cell seeds of run seed ``seed``; distinct run seeds share none."""
        k = self.seeds_per_pass
        return tuple(range(seed * k, seed * k + k))

    def config(self, **overrides: Any) -> ExperimentConfig:
        """The workload's config (``overrides`` shrink it in tests).

        The config's own seed is :data:`DEFAULT_SEED` at every run seed:
        it only draws the SETI host population, so that population is
        part of the workload, as the Table 2 groups of the emulation
        workloads are. The cell seed drives everything random inside a
        cell (interruptions, placement draws, task lengths).
        """
        cls = EmulationConfig if self.kind == "emulation" else SimulationConfig
        return cls(**{**self.knobs, **overrides, "seed": DEFAULT_SEED})

    def record(self, seed: int) -> Dict[str, Any]:
        """Every knob that decides the workload's trajectory, for like-for-like records."""
        return {
            "kind": self.kind,
            "config": dataclasses.asdict(self.config()),
            "cells": [cell.key for cell in self.cells],
            "cell_seeds": list(self.cell_seeds(seed)),
            "audit": self.audit,
            "seed": seed,
        }


def cell_key(strategy: Strategy, cell_seed: int) -> str:
    return f"{strategy.key}@{cell_seed}"


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="emu-fig3",
            kind="emulation",
            knobs={"node_count": 32},
            cells=(Strategy("existing", 1), Strategy("adapt", 1)),
            seeds_per_pass=12,
        ),
        Workload(
            name="sim-fig5",
            kind="simulation",
            knobs={"node_count": 256, "tasks_per_node": 100.0},
            cells=(Strategy("existing", 1), Strategy("adapt", 1)),
            seeds_per_pass=1,
        ),
        Workload(
            name="emu-clos-durability",
            kind="emulation",
            knobs={
                "node_count": 32,
                "topology": "clos",
                "racks": 8,
                "oversubscription": 4.0,
                "rack_aware_placement": True,
                "replication_monitor": True,
                "permanent_failure_rate": 0.05,
                "permanent_failure_horizon": 1200.0,
            },
            cells=(Strategy("existing", 2), Strategy("adapt", 2)),
            seeds_per_pass=8,
            audit="strict",
        ),
    )
}


def _direct(fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
    return fn(*args, **kwargs)


@dataclass
class CellRun:
    """One finished cell: its result, phase times and work counts."""

    result: MapPhaseResult
    setup_s: float
    build_s: float
    ingest_s: float
    map_s: float
    report_s: float
    #: Simulator events fired over the whole cell / during the map phase.
    events: int
    map_events: int
    pregen_s: float
    published: int
    dispatched: int
    useful_attempts: int
    rereplications: int
    audits: int

    @property
    def wall_s(self) -> float:
        return self.setup_s + self.ingest_s + self.map_s + self.report_s

    @property
    def digest(self) -> str:
        """Fingerprint of the outcome: summary row, full result, event count.

        The full result covers the exact breakdown floats and every
        durability field; two cells with equal digests simulated the same
        trajectory.
        """
        payload = {
            "summary": self.result.summary_row(),
            "result": result_to_jsonable(self.result),
            "events": self.events,
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def run_cell(
    workload: Workload,
    strategy: Strategy,
    seed: int,
    call: Callable[..., Any] = _direct,
    **overrides: Any,
) -> CellRun:
    """Run one cell phase by phase; ``call`` invokes every public step.

    The tracer passes its span-recording ``call``; the default calls
    straight through. ``overrides`` replace config fields (tests use
    them to shrink the cluster).
    """
    clock = time.perf_counter
    policy = make_policy(strategy.policy)
    terasort = TerasortWorkload()
    t0 = clock()
    config = workload.config(**overrides)
    hosts = call(config.hosts)
    if isinstance(config, SimulationConfig):
        blocks_per_node = config.tasks_per_node
    else:
        blocks_per_node = config.blocks_per_node
    num_blocks = max(int(round(blocks_per_node * len(hosts))), 1)
    cluster_config = config.cluster_config(seed=seed)
    if workload.audit is not None:
        cluster_config = dataclasses.replace(cluster_config, audit=workload.audit)
    gamma = terasort.gamma_seconds(cluster_config.block_size_bytes)
    build_start = clock()
    cluster = call(build_cluster, hosts, cluster_config, default_gamma=gamma)
    build_s = clock() - build_start
    try:
        call(cluster.sim.run, until=0.0)
        t1 = clock()
        dfs_file = call(
            cluster.client.copy_from_local,
            name="input",
            num_blocks=num_blocks,
            replication=strategy.replication,
            policy=policy,
            gamma=gamma,
        )
        t2 = clock()
        events_before_map = cluster.sim.events_fired
        gammas = call(terasort.gammas, dfs_file, rng=cluster.rng.substream("workload"))
        job = call(MapJob, JobConf(name=terasort.name), dfs_file, gammas)
        call(cluster.jobtracker.submit, job)
        call(cluster.run_until_job_done)
        t3 = clock()
        map_events = cluster.sim.events_fired - events_before_map
        breakdown = call(cluster.metrics.breakdown, job.makespan, slots=cluster.total_slots)
        result = MapPhaseResult(
            policy=policy.name,
            replication=strategy.replication,
            node_count=cluster.node_count,
            num_tasks=job.num_tasks,
            elapsed=job.makespan,
            data_locality=cluster.metrics.data_locality,
            breakdown=breakdown,
            seed=cluster.config.seed,
            durability=cluster.durability,
            interruptions=cluster.metrics.interruptions,
            node_returns=cluster.metrics.node_returns,
        )
    finally:
        # Teardown runs the strict auditor's final sweep, so it stays
        # inside the report phase (and fails the cell when it raises).
        call(cluster.stop)
    t4 = clock()
    profile = cluster.build_profile
    return CellRun(
        result=result,
        setup_s=t1 - t0,
        build_s=build_s,
        ingest_s=t2 - t1,
        map_s=t3 - t2,
        report_s=t4 - t3,
        events=cluster.sim.events_fired,
        map_events=map_events,
        pregen_s=profile.pregen_seconds if profile is not None else 0.0,
        published=cluster.bus.published_count,
        dispatched=cluster.bus.dispatched_count,
        useful_attempts=cluster.metrics.total_tasks,
        rereplications=cluster.durability.rereplications_started,
        audits=cluster.auditor.report.audits_run if cluster.auditor is not None else 0,
    )
