"""Overhead accounting for the map phase (Figure 5's decomposition).

The paper measures, besides elapsed time and data locality, the overhead of
each cost component relative to the application's aggregate failure-free
execution time (Section V.C):

* **rework** — partial task executions lost to interruptions;
* **recovery** — slot time lost while an interrupted node is down during
  the map phase;
* **migration** — network time spent streaming blocks to remote tasks;
* **misc** — everything else: scheduling delay, duplicated straggler
  (speculative) executions, and idle slot time at the end of the phase.

:class:`MapPhaseMetrics` collects raw quantities during a run;
:meth:`MapPhaseMetrics.breakdown` converts them into the paper's overhead
ratios. The slot-time conservation law

    slots * makespan = base + rework + recovery + migration
                       + duplicate + idle (+ rounding)

is exposed via :meth:`OverheadBreakdown.conservation_residual` and
property-tested.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Set

from repro.util.validation import check_non_negative


@dataclass
class MapPhaseMetrics:
    """Mutable accumulator used by the JobTracker / TaskTrackers."""

    #: Aggregate failure-free execution time of all distinct tasks (m * gamma).
    base_work: float = 0.0
    #: Partial execution time lost in failed attempts.
    rework_time: float = 0.0
    #: Node downtime overlapping the map phase (slot unavailable).
    recovery_time: float = 0.0
    #: Transfer wall-time for remote reads (including cancelled partials).
    migration_time: float = 0.0
    #: Execution time burnt by speculative attempts that lost the race.
    duplicate_time: float = 0.0
    #: Up-slot time with no attempt assigned.
    idle_time: float = 0.0
    #: Useful (winning) execution time actually spent; equals base_work
    #: unless task lengths vary between attempts.
    useful_time: float = 0.0

    local_tasks: int = 0
    remote_tasks: int = 0
    failed_attempts: int = 0
    speculative_attempts: int = 0
    migrations: int = 0
    #: Physical availability transitions observed over the cluster's whole
    #: lifetime (counted by the JobTracker's ACCOUNTING-phase handlers; the
    #: trace integration test cross-checks these against the recorded
    #: NodeDown/NodeUp event stream).
    interruptions: int = 0
    node_returns: int = 0

    # Per-task adds test the sign inline; the validator is called only to raise.

    def add_base(self, gamma: float) -> None:
        gamma = float(gamma)
        self.base_work += gamma if gamma >= 0 else check_non_negative("gamma", gamma)

    def add_rework(self, seconds: float) -> None:
        seconds = float(seconds)
        self.rework_time += seconds if seconds >= 0 else check_non_negative("seconds", seconds)
        self.failed_attempts += 1

    def add_recovery(self, seconds: float) -> None:
        self.recovery_time += check_non_negative("seconds", seconds)

    def add_migration(self, seconds: float) -> None:
        seconds = float(seconds)
        self.migration_time += seconds if seconds >= 0 else check_non_negative("seconds", seconds)
        self.migrations += 1

    def add_duplicate(self, seconds: float) -> None:
        seconds = float(seconds)
        self.duplicate_time += seconds if seconds >= 0 else check_non_negative("seconds", seconds)

    def add_idle(self, seconds: float) -> None:
        self.idle_time += check_non_negative("seconds", seconds)

    def add_useful(self, seconds: float) -> None:
        seconds = float(seconds)
        self.useful_time += seconds if seconds >= 0 else check_non_negative("seconds", seconds)

    def record_completion(self, local: bool) -> None:
        if local:
            self.local_tasks += 1
        else:
            self.remote_tasks += 1

    @property
    def total_tasks(self) -> int:
        return self.local_tasks + self.remote_tasks

    @property
    def data_locality(self) -> float:
        """Ratio of local tasks to all tasks (the paper's locality metric).

        NaN when no task completed (every task abandoned after total data
        loss): the ratio is undefined, but reporting must not abort — a
        data-loss sweep still wants the rest of the breakdown row.
        """
        total = self.total_tasks
        if total == 0:
            return float("nan")
        return self.local_tasks / total

    def breakdown(self, makespan: float, slots: int) -> "OverheadBreakdown":
        """Convert raw sums into the Figure 5 overhead ratios."""
        check_non_negative("makespan", makespan)
        if slots <= 0:
            raise ValueError(f"slots must be positive, got {slots}")
        if self.base_work <= 0:
            raise ValueError("base work is zero; did any task run?")
        return OverheadBreakdown(
            base_work=self.base_work,
            makespan=makespan,
            slot_time=makespan * slots,
            rework=self.rework_time,
            recovery=self.recovery_time,
            migration=self.migration_time,
            duplicate=self.duplicate_time,
            idle=self.idle_time,
            useful=self.useful_time,
            data_locality=self.data_locality,
        )


@dataclass
class DurabilityMetrics:
    """Durability accounting for the storage layer.

    Populated by the :class:`~repro.hdfs.replication_monitor.ReplicationMonitor`
    (re-replication traffic, retries, garbage collection), the cluster's
    permanent-failure wiring (replicas destroyed, blocks lost for good) and
    the TaskTrackers (degraded-read retries on the hardened fetch path).
    """

    #: Permanent node failures observed (at detection time).
    permanent_failures: int = 0
    #: Replicas destroyed by permanent failures (disk wiped).
    replicas_lost: int = 0
    #: Blocks with zero surviving replicas — unrecoverable data loss.
    blocks_lost: int = 0
    #: Re-replication copies started / completed over the network.
    rereplications_started: int = 0
    rereplications_completed: int = 0
    #: Bytes moved by re-replication (partial bytes of failed copies count:
    #: the traffic was spent either way).
    rereplication_bytes: float = 0.0
    #: Wall-clock transfer time consumed by re-replication copies.
    rereplication_seconds: float = 0.0
    #: Copies torn down mid-transfer by an endpoint death.
    rereplication_failures: int = 0
    #: Backoff retries scheduled after mid-copy failures.
    rereplication_retries: int = 0
    #: Blocks whose retry budget ran out (left for a later membership event).
    rereplication_abandoned: int = 0
    #: Redundant replicas removed when an interrupted holder returned.
    overreplicated_removed: int = 0
    #: Remote fetches retried against a surviving replica instead of
    #: failing the attempt outright (the hardened read path).
    degraded_read_retries: int = 0

    _lost_ids: Set[str] = field(default_factory=set, repr=False)

    def record_permanent_failure(self, replicas_destroyed: int) -> None:
        if replicas_destroyed < 0:
            raise ValueError(f"replicas_destroyed must be >= 0, got {replicas_destroyed}")
        self.permanent_failures += 1
        self.replicas_lost += replicas_destroyed

    def record_lost_blocks(self, block_ids: Iterable[str]) -> None:
        """Record unrecoverable blocks (idempotent per block id)."""
        for block_id in block_ids:
            if block_id not in self._lost_ids:
                self._lost_ids.add(block_id)
                self.blocks_lost += 1

    @property
    def lost_block_ids(self) -> List[str]:
        return sorted(self._lost_ids)

    def record_copy_traffic(self, transferred_bytes: float, seconds: float) -> None:
        self.rereplication_bytes += check_non_negative("bytes", transferred_bytes)
        self.rereplication_seconds += check_non_negative("seconds", seconds)

    def summary_row(self) -> Dict[str, object]:
        """Flat view for result tables / benchmark output."""
        return {
            "permanent_failures": self.permanent_failures,
            "replicas_lost": self.replicas_lost,
            "blocks_lost": self.blocks_lost,
            "rereplications_completed": self.rereplications_completed,
            "rereplication_bytes": self.rereplication_bytes,
            "rereplication_seconds": self.rereplication_seconds,
            "rereplication_failures": self.rereplication_failures,
            "rereplication_retries": self.rereplication_retries,
            "overreplicated_removed": self.overreplicated_removed,
            "degraded_read_retries": self.degraded_read_retries,
        }


@dataclass(frozen=True)
class OverheadBreakdown:
    """Immutable overhead report for one finished map phase."""

    base_work: float
    makespan: float
    slot_time: float
    rework: float
    recovery: float
    migration: float
    duplicate: float
    idle: float
    useful: float
    data_locality: float

    @property
    def misc_raw(self) -> float:
        """Signed slot-time remainder: slot_time - (useful + rework +
        recovery + migration).

        A remainder materially below zero means some interval was charged
        to two components at once — the invariant auditor checks it stays
        within float tolerance of the duplicate + idle share.
        """
        return (
            self.slot_time - self.useful - self.rework - self.recovery - self.migration
        )

    @property
    def misc(self) -> float:
        """Misc overhead: duplicate speculation + idle + scheduling slack.

        Derived as the slot-time remainder so the conservation law holds by
        construction; clamped at zero for display against float residue
        (see :attr:`misc_raw` for the signed value).
        """
        return max(self.misc_raw, 0.0)

    @property
    def total_overhead(self) -> float:
        """Everything that was not useful failure-free work."""
        return self.rework + self.recovery + self.migration + self.misc

    def ratios(self) -> Dict[str, float]:
        """Per-component overhead ratios relative to base work (Figure 5)."""
        base = self.base_work
        return {
            "rework": self.rework / base,
            "recovery": self.recovery / base,
            "migration": self.migration / base,
            "misc": self.misc / base,
            "total": self.total_overhead / base,
        }

    def conservation_residual(self) -> float:
        """slot_time - (useful + rework + recovery + migration + duplicate + idle).

        Any residual beyond float noise is time the accounting failed to
        attribute (it still lands in ``misc``, as scheduling slack).
        """
        accounted = (
            self.useful
            + self.rework
            + self.recovery
            + self.migration
            + self.duplicate
            + self.idle
        )
        return self.slot_time - accounted
