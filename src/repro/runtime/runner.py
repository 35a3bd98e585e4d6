"""End-to-end map-phase execution: the measurement harness primitive.

``run_map_phase`` builds a cluster, ingests the input file under a chosen
placement policy, runs the map phase to completion, and returns a
:class:`MapPhaseResult` with exactly the quantities the paper reports:
map-phase elapsed time (Figure 3), data locality (Figure 4), and the
rework/recovery/migration/misc overhead breakdown (Figure 5).

``trace_out`` exports the cluster's full bus-event stream as JSON Lines
(one object per event, in causal order) — see
:class:`~repro.simulator.trace.TraceRecorder`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.availability.generator import HostAvailability
from repro.availability.traces import AvailabilityTrace
from repro.core.placement import PlacementPolicy, make_policy
from repro.mapreduce.job import JobConf, MapJob
from repro.runtime.cluster import ClusterConfig, build_cluster
from repro.simulator.chaos import ResilienceReport
from repro.simulator.metrics import DurabilityMetrics, OverheadBreakdown
from repro.simulator.scenarios import ChaosCampaign
from repro.workloads.base import Workload
from repro.workloads.terasort import TerasortWorkload


@dataclass(frozen=True)
class MapPhaseResult:
    """Measurements of one finished map phase."""

    policy: str
    replication: int
    node_count: int
    num_tasks: int
    elapsed: float
    data_locality: float
    breakdown: OverheadBreakdown
    seed: int
    #: Storage-durability accounting for the run (always present; all
    #: zeros unless failures were permanent or the monitor/read-path
    #: hardening did work).
    durability: Optional[DurabilityMetrics] = None
    #: Physical availability transitions over the cluster's lifetime —
    #: cross-checkable against a ``trace_out`` export's NodeDown/NodeUp
    #: record counts.
    interruptions: int = 0
    node_returns: int = 0
    #: Chaos-campaign resilience metrics (None unless a campaign ran).
    resilience: Optional[ResilienceReport] = None

    @property
    def overhead_ratios(self) -> Dict[str, float]:
        """Figure 5's per-component ratios against aggregate base work."""
        return self.breakdown.ratios()

    def summary_row(self) -> Dict[str, object]:
        """Flat record for tabular reporting."""
        row: Dict[str, object] = {
            "policy": self.policy,
            "replicas": self.replication,
            "nodes": self.node_count,
            "tasks": self.num_tasks,
            "elapsed_s": round(self.elapsed, 1),
            "locality": round(self.data_locality, 4),
        }
        for key, value in self.overhead_ratios.items():
            row[f"{key}_overhead"] = round(value, 4)
        return row


def run_map_phase(
    hosts: Sequence[HostAvailability],
    config: ClusterConfig,
    policy: PlacementPolicy | str,
    replication: int = 1,
    blocks_per_node: float = 20.0,
    num_blocks: Optional[int] = None,
    workload: Optional[Workload] = None,
    job_conf: Optional[JobConf] = None,
    traces: Optional[Sequence[AvailabilityTrace]] = None,
    warmup_seconds: float = 0.0,
    max_events: int = 500_000_000,
    trace_out: Optional[str] = None,
    audit: Optional[str] = None,
    audit_out: Optional[str] = None,
    chaos: Optional[ChaosCampaign] = None,
) -> MapPhaseResult:
    """Run one complete experiment point.

    The input file has ``num_blocks`` blocks (default:
    ``blocks_per_node * len(hosts)``, the paper's 20-blocks-per-node rule),
    ingested with ``policy`` at ``replication``, and processed by
    ``workload`` (terasort by default). ``warmup_seconds`` advances the
    cluster before ingest so heartbeat-driven estimators can learn — only
    meaningful with ``config.oracle_estimates=False``. ``trace_out``
    writes the bus-event stream to that path as JSON Lines (implies
    ``config.trace_events``).

    ``audit`` overrides ``config.audit`` ("report" or "strict"); in strict
    mode the first invariant violation raises. ``audit_out`` writes the
    final :class:`~repro.simulator.invariants.AuditReport` as JSON (implies
    ``audit="report"`` when no mode was chosen).

    ``chaos`` layers a scripted campaign on the run; the result then
    carries a :class:`~repro.simulator.chaos.ResilienceReport` in
    ``resilience``.
    """
    if isinstance(policy, str):
        policy = make_policy(policy)
    if trace_out is not None and not config.trace_events:
        config = dataclasses.replace(config, trace_events=True)
    if chaos is not None:
        config = dataclasses.replace(config, chaos=chaos)
    if audit is None and audit_out is not None and config.audit == "off":
        audit = "report"
    if audit is not None:
        config = dataclasses.replace(config, audit=audit)
    chosen_workload = workload if workload is not None else TerasortWorkload()
    gamma = chosen_workload.gamma_seconds(config.block_size_bytes)
    cluster = build_cluster(hosts, config, traces=traces, default_gamma=gamma)
    try:
        # Settle any t=0 transitions (stationary starts put some hosts down
        # at the window origin) before the NameNode takes its placement
        # snapshot.
        cluster.sim.run(until=0.0)
        if warmup_seconds > 0.0:
            cluster.sim.run(until=warmup_seconds)

        m = (
            num_blocks
            if num_blocks is not None
            else max(int(round(blocks_per_node * len(hosts))), 1)
        )
        dfs_file = cluster.client.copy_from_local(
            name="input",
            num_blocks=m,
            replication=replication,
            policy=policy,
            gamma=gamma,
        )
        conf = job_conf if job_conf is not None else JobConf(name=chosen_workload.name)
        gammas = chosen_workload.gammas(dfs_file, rng=cluster.rng.substream("workload"))
        job = MapJob(conf, dfs_file, gammas)
        cluster.jobtracker.submit(job)
        cluster.run_until_job_done(max_events=max_events)

        breakdown = cluster.metrics.breakdown(job.makespan, slots=cluster.total_slots)
        result = MapPhaseResult(
            policy=policy.name,
            replication=replication,
            node_count=cluster.node_count,
            num_tasks=job.num_tasks,
            elapsed=job.makespan,
            data_locality=cluster.metrics.data_locality,
            breakdown=breakdown,
            seed=config.seed,
            durability=cluster.durability,
            interruptions=cluster.metrics.interruptions,
            node_returns=cluster.metrics.node_returns,
            resilience=(
                cluster.chaos.report(makespan=job.makespan)
                if cluster.chaos is not None
                else None
            ),
        )
    finally:
        # Teardown after every result field is captured (stopping kills live
        # speculative attempts, which would otherwise perturb the
        # accounting) — but also on *failure*, so a cell that dies mid-run
        # in a sweep worker never strands scheduled events or services.
        cluster.stop()
    if trace_out is not None and cluster.tracer is not None:
        cluster.tracer.export_jsonl(trace_out)
    if audit_out is not None and cluster.auditor is not None:
        cluster.auditor.report.export_json(audit_out)
    return result
