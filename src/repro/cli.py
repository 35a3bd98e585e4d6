"""Command-line interface: HDFS-shell-style commands plus experiment runs.

Examples
--------
Model a task's expected time under interruptions (formula 5)::

    repro model --gamma 12 --mtbi 20 --recovery 8

Show how each policy spreads 2560 blocks over the Table 2 population::

    repro placement --nodes 128 --ratio 0.5 --blocks-per-node 20

Run one emulation point (Figure 3/4 cell)::

    repro emulate --policy adapt --replicas 1 --nodes 128 --ratio 0.5

Run a scaled-down Figure 5 cell::

    repro simulate --policy existing --replicas 1 --nodes 512 --tasks-per-node 20

Regenerate Table 1 statistics from the synthetic SETI model::

    repro table1 --nodes 2000
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List, Optional, Sequence, TypeVar

from repro.availability.generator import build_group_hosts, count_unstable, table2_groups
from repro.core.model import expected_attempts, expected_downtime, expected_rework, expected_task_time
from repro.core.placement import NodeView, make_policy
from repro.experiments.config import EmulationConfig, SimulationConfig, Strategy
from repro.experiments.emulation import run_emulation_point
from repro.experiments.largescale import run_simulation_point, table1_statistics
from repro.util.rng import RandomSource
from repro.util.tables import format_table
from repro.util.units import MB

T = TypeVar("T")


class _UsageError(Exception):
    """A command-line value that an experiment config rejected."""


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    handler = {
        "model": _cmd_model,
        "placement": _cmd_placement,
        "emulate": _cmd_emulate,
        "simulate": _cmd_simulate,
        "chaos": _cmd_chaos,
        "table1": _cmd_table1,
        "groups": _cmd_groups,
        "lint": _cmd_lint,
    }[args.command]
    try:
        return handler(args)
    except _UsageError as exc:
        parser.error(str(exc))


def _experiment_config(factory: Callable[..., T], **fields: object) -> T:
    """``factory(**fields)``, with a rejected value reported as a usage error.

    Only the config's own validation is caught: a ValueError raised later,
    by the run itself, still surfaces as a traceback.
    """
    try:
        return factory(**fields)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ADAPT (ICDCS 2012) reproduction toolbox",
    )
    sub = parser.add_subparsers(dest="command")

    model = sub.add_parser("model", help="evaluate the task-time model (formula 5)")
    model.add_argument("--gamma", type=float, required=True, help="failure-free task length (s)")
    model.add_argument("--mtbi", type=float, required=True, help="mean time between interruptions (s)")
    model.add_argument("--recovery", type=float, required=True, help="mean recovery time (s)")

    placement = sub.add_parser("placement", help="show per-policy block distributions")
    placement.add_argument("--nodes", type=int, default=128)
    placement.add_argument("--ratio", type=float, default=0.5)
    placement.add_argument("--blocks-per-node", type=float, default=20.0)
    placement.add_argument("--replicas", type=int, default=1)
    placement.add_argument("--gamma", type=float, default=12.0)
    placement.add_argument("--seed", type=int, default=0)

    emulate = sub.add_parser("emulate", help="run one emulation point (Fig 3/4 cell)")
    emulate.add_argument("--policy", default="adapt", choices=["existing", "naive", "adapt"])
    emulate.add_argument("--replicas", type=int, default=1)
    emulate.add_argument("--nodes", type=int, default=128)
    emulate.add_argument("--ratio", type=float, default=0.5)
    emulate.add_argument("--bandwidth", type=float, default=8.0)
    emulate.add_argument("--blocks-per-node", type=float, default=20.0)
    emulate.add_argument("--seed", type=int, default=0)
    emulate.add_argument(
        "--replication-monitor",
        action="store_true",
        help="heal under-replicated blocks by re-replicating over the network",
    )
    emulate.add_argument(
        "--permanent-failure-rate",
        type=float,
        default=0.0,
        help="per-host probability of an unrecoverable loss (disk wiped)",
    )
    emulate.add_argument(
        "--permanent-failure-horizon",
        type=float,
        default=600.0,
        help="permanent losses strike uniformly within this many seconds",
    )
    emulate.add_argument(
        "--fetch-retries",
        type=int,
        default=2,
        help="remote-fetch retries across surviving replicas (0 = fail fast)",
    )
    emulate.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="export the run's bus-event stream to PATH as JSON Lines",
    )
    emulate.add_argument(
        "--audit",
        choices=["report", "strict"],
        default=None,
        help="audit cross-layer invariants during the run "
        "(strict: raise on the first violation)",
    )
    emulate.add_argument(
        "--audit-out",
        metavar="PATH",
        default=None,
        help="write the audit report to PATH as JSON (implies --audit report)",
    )
    emulate.add_argument(
        "--chaos",
        metavar="FILE",
        default=None,
        help="layer a scripted chaos campaign (JSON file) on the run",
    )
    _add_topology_args(emulate)
    _add_executor_args(emulate)

    simulate = sub.add_parser("simulate", help="run one large-scale point (Fig 5 cell)")
    simulate.add_argument("--policy", default="adapt", choices=["existing", "naive", "adapt"])
    simulate.add_argument("--replicas", type=int, default=1)
    simulate.add_argument("--nodes", type=int, default=1024)
    simulate.add_argument("--bandwidth", type=float, default=8.0)
    simulate.add_argument("--block-size-mb", type=float, default=64.0)
    simulate.add_argument("--tasks-per-node", type=float, default=100.0)
    simulate.add_argument("--seed", type=int, default=0)
    _add_topology_args(simulate)
    _add_executor_args(simulate)

    chaos = sub.add_parser(
        "chaos",
        help="run a scripted chaos campaign and report resilience metrics",
    )
    chaos.add_argument(
        "--campaign",
        metavar="FILE",
        required=True,
        help="JSON campaign file (see DESIGN.md, 'Chaos campaigns')",
    )
    chaos.add_argument("--policy", default="adapt", choices=["existing", "naive", "adapt"])
    chaos.add_argument("--replicas", type=int, default=1)
    chaos.add_argument("--nodes", type=int, default=128)
    chaos.add_argument("--ratio", type=float, default=0.5)
    chaos.add_argument("--bandwidth", type=float, default=8.0)
    chaos.add_argument("--blocks-per-node", type=float, default=20.0)
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument(
        "--replication-monitor",
        action="store_true",
        help="heal under-replicated blocks by re-replicating over the network",
    )
    chaos.add_argument(
        "--audit",
        choices=["report", "strict"],
        default=None,
        help="audit cross-layer invariants during the chaos run "
        "(strict: raise on the first violation)",
    )
    chaos.add_argument(
        "--baseline",
        choices=["fault-free", "no-chaos"],
        default="fault-free",
        help="reference run for makespan inflation and SLO attainment",
    )
    chaos.add_argument(
        "--report",
        metavar="PATH",
        default=None,
        help="write the ResilienceReport to PATH as JSON",
    )
    chaos.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="export the chaos run's bus-event stream to PATH as JSON Lines",
    )
    _add_topology_args(chaos)

    table1 = sub.add_parser("table1", help="regenerate Table 1 from synthetic traces")
    table1.add_argument("--nodes", type=int, default=2000)
    table1.add_argument("--horizon-days", type=float, default=180.0)
    table1.add_argument("--seed", type=int, default=0)

    sub.add_parser("groups", help="print the Table 2 interruption groups")

    lint = sub.add_parser(
        "lint",
        help="run simlint (static determinism, event-bus contract and flow checks)",
    )
    from repro.devtools.simlint.cli import add_arguments as _add_lint_arguments

    _add_lint_arguments(lint)
    return parser


def _add_topology_args(command: argparse.ArgumentParser) -> None:
    """Network-fabric knobs shared by the experiment subcommands."""
    from repro.simulator.mitigation import MITIGATIONS
    from repro.simulator.topology import TOPOLOGIES

    command.add_argument(
        "--topology",
        choices=list(TOPOLOGIES),
        default="flat",
        help="network fabric: flat star (default) or hierarchical Clos",
    )
    command.add_argument(
        "--racks",
        type=int,
        default=1,
        help="racks in the Clos fabric (hosts assigned round-robin)",
    )
    command.add_argument(
        "--oversubscription",
        type=float,
        default=1.0,
        help="Clos trunk oversubscription ratio (1.0 = full bisection)",
    )
    command.add_argument(
        "--rack-aware-placement",
        action="store_true",
        help="enforce the HDFS off-rack replica rule on ingest placement",
    )
    command.add_argument(
        "--link-mitigation",
        choices=["none", *MITIGATIONS],
        default="none",
        help="response to degraded-link chaos windows (default: none)",
    )


def _topology_overrides(args: argparse.Namespace) -> Dict[str, object]:
    return {
        "topology": args.topology,
        "racks": args.racks,
        "oversubscription": args.oversubscription,
        "rack_aware_placement": args.rack_aware_placement,
        "link_mitigation": args.link_mitigation,
    }


def _add_executor_args(command: argparse.ArgumentParser) -> None:
    """Sweep-executor knobs shared by the experiment subcommands."""
    command.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for experiment cells (default: $REPRO_JOBS or 1)",
    )
    command.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="content-addressed run cache: completed cells are skipped on re-runs",
    )


def _make_executor(args: argparse.Namespace):
    from repro.experiments.parallel import SweepExecutor

    if args.jobs is None and args.cache_dir is None:
        return None
    return SweepExecutor(jobs=args.jobs, cache_dir=args.cache_dir)


def _cmd_model(args: argparse.Namespace) -> int:
    lam = 1.0 / args.mtbi
    rows = [
        ["E[X] rework per failure (s)", f"{expected_rework(args.gamma, lam):.3f}"],
        ["E[Y] downtime per failure (s)", f"{expected_downtime(lam, args.recovery):.3f}"],
        ["E[S] failed attempts", f"{expected_attempts(args.gamma, lam):.3f}"],
        ["E[T] expected task time (s)", f"{expected_task_time(args.gamma, lam, args.recovery):.3f}"],
        ["slowdown E[T]/gamma", f"{expected_task_time(args.gamma, lam, args.recovery) / args.gamma:.3f}"],
    ]
    print(format_table(["quantity", "value"], rows, title="Stochastic model (Section III.B)"))
    return 0


def _cmd_placement(args: argparse.Namespace) -> int:
    hosts = build_group_hosts(args.nodes, args.ratio)
    num_blocks = max(int(round(args.blocks_per_node * args.nodes)), 1)
    rng = RandomSource(args.seed)
    from repro.availability.estimators import AvailabilityEstimate

    views = [
        NodeView(
            node_id=h.host_id,
            estimate=AvailabilityEstimate(
                arrival_rate=h.arrival_rate, recovery_mean=h.service_mean, observations=1
            ),
        )
        for h in hosts
    ]
    rows: List[List[object]] = []
    group_of = {h.host_id: h.group for h in hosts}
    for name in ("existing", "naive", "adapt"):
        policy = make_policy(name)
        plan = policy.build_plan(views, num_blocks, args.replicas, args.gamma)
        stream = rng.substream("placement", name)
        for _ in range(num_blocks):
            plan.choose_replicas(stream)
        per_group: Dict[str, List[int]] = {}
        for node_id, count in plan.allocations().items():
            per_group.setdefault(group_of[node_id], []).append(count)
        for group in sorted(per_group):
            counts = per_group[group]
            rows.append(
                [name, group, len(counts), f"{sum(counts) / len(counts):.1f}", max(counts)]
            )
    print(
        format_table(
            ["policy", "group", "nodes", "mean blocks/node", "max"],
            rows,
            title=f"Block distribution: {num_blocks} blocks x{args.replicas} over {args.nodes} nodes",
        )
    )
    return 0


def _cmd_emulate(args: argparse.Namespace) -> int:
    config = _experiment_config(
        EmulationConfig,
        node_count=args.nodes,
        interrupted_ratio=args.ratio,
        bandwidth_mbps=args.bandwidth,
        blocks_per_node=args.blocks_per_node,
        seed=args.seed,
        replication_monitor=args.replication_monitor,
        permanent_failure_rate=args.permanent_failure_rate,
        permanent_failure_horizon=args.permanent_failure_horizon,
        fetch_retries=args.fetch_retries,
        **_topology_overrides(args),
    )
    executor = _make_executor(args)
    audit = args.audit if args.audit is not None else ("report" if args.audit_out else None)
    campaign = None
    if args.chaos is not None:
        from repro.simulator.scenarios import ChaosCampaign

        campaign = ChaosCampaign.load(args.chaos)
    result = run_emulation_point(
        config,
        Strategy(args.policy, args.replicas),
        trace_out=args.trace_out,
        executor=executor,
        audit=audit,
        audit_out=args.audit_out,
        chaos=campaign,
    )
    _print_result(result)
    if result.resilience is not None:
        _print_resilience(result.resilience)
    if args.trace_out is not None:
        print(f"trace written to {args.trace_out}")
    if audit is not None:
        if args.audit_out is not None:
            print(f"audit report ({audit} mode) written to {args.audit_out}")
        else:
            print(f"audit ran in {audit} mode; no violations raised")
    if executor is not None and executor.cache_hits:
        print(f"run cache: {executor.cache_hits} hit(s) from {executor.cache_dir}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _experiment_config(
        SimulationConfig,
        node_count=args.nodes,
        bandwidth_mbps=args.bandwidth,
        block_size_bytes=int(args.block_size_mb * MB),
        tasks_per_node=args.tasks_per_node,
        seed=args.seed,
        **_topology_overrides(args),
    )
    executor = _make_executor(args)
    result = run_simulation_point(
        config, Strategy(args.policy, args.replicas), executor=executor
    )
    _print_result(result)
    hosts = config.hosts()
    print(f"hosts with ρ ≥ 1: {count_unstable(hosts)} of {len(hosts)}")
    if executor is not None and executor.cache_hits:
        print(f"run cache: {executor.cache_hits} hit(s) from {executor.cache_dir}")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.experiments.chaosrun import run_chaos_point
    from repro.simulator.scenarios import ChaosCampaign

    campaign = ChaosCampaign.load(args.campaign)
    config = _experiment_config(
        EmulationConfig,
        node_count=args.nodes,
        interrupted_ratio=args.ratio,
        bandwidth_mbps=args.bandwidth,
        blocks_per_node=args.blocks_per_node,
        seed=args.seed,
        replication_monitor=args.replication_monitor,
        **_topology_overrides(args),
    )
    outcome = run_chaos_point(
        config,
        Strategy(args.policy, args.replicas),
        campaign,
        audit=args.audit,
        trace_out=args.trace_out,
        baseline_mode=args.baseline,
    )
    _print_result(outcome.result)
    _print_resilience(outcome.report)
    if args.audit is not None:
        print(f"audit ran in {args.audit} mode; no violations raised")
    if args.trace_out is not None:
        print(f"trace written to {args.trace_out}")
    if args.report is not None:
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(outcome.report.to_json())
            handle.write("\n")
        print(f"resilience report written to {args.report}")
    return 0


def _print_resilience(report) -> None:
    rows: List[List[object]] = []
    for key, value in report.to_jsonable().items():
        if key == "activations":
            rows.append(["scenarios", len(value)])
        elif isinstance(value, float):
            rows.append([key, f"{value:.4f}"])
        else:
            rows.append([key, value])
    print(format_table(["metric", "value"], rows, title="Resilience report"))


def _print_result(result) -> None:
    rows = [[k, v] for k, v in result.summary_row().items()]
    durability = getattr(result, "durability", None)
    if durability is not None and (
        durability.permanent_failures
        or durability.rereplications_started
        or durability.degraded_read_retries
        or durability.blocks_lost
    ):
        rows.extend([k, v] for k, v in durability.summary_row().items())
    print(format_table(["metric", "value"], rows, title="Map phase result"))


def _cmd_table1(args: argparse.Namespace) -> int:
    stats = table1_statistics(
        node_count=args.nodes, horizon=args.horizon_days * 86400.0, seed=args.seed
    )
    rows = [
        ["MTBI (seconds)", *stats["mtbi"].as_row()],
        ["Interruption Duration (seconds)", *stats["duration"].as_row()],
    ]
    print(format_table(["", "Mean", "Std Dev", "CoV"], rows, title="Table 1 (synthetic)"))
    print("\nPaper's values: MTBI 160290 / 701419 / 4.376;")
    print("duration 109380 / 807983 / 7.3869")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.devtools.simlint.cli import run as run_lint

    return run_lint(args)


def _cmd_groups(args: argparse.Namespace) -> int:
    rows = [[g.name, f"{g.mtbi:.0f}", f"{g.service_mean:.0f}"] for g in table2_groups()]
    print(format_table(["group", "MTBI (s)", "service time (s)"], rows, title="Table 2"))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
