"""Straggler detection and speculative re-execution.

"A task is referred to as straggler if its progress is significantly slower
than other tasks ... JobTracker will allocate stragglers to the idle node"
(Section II.B). Our model has two straggler causes: attempts on a node that
was interrupted (stalled until the JobTracker notices), and attempts whose
fetch or execution is simply taking much longer than expected (network
contention, repeated failures).

:class:`SpeculationPolicy` encapsulates eligibility; the JobTracker asks it
whether a running task deserves a duplicate attempt. The losing duplicate's
execution time is the "duplicated straggler execution" charged to the
paper's *misc* overhead.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.ids import NodeId
from repro.mapreduce.job import MapTask
from repro.util.validation import check_non_negative


@dataclass(frozen=True)
class SpeculationPolicy:
    """Eligibility rules for speculative execution.

    ``slowdown`` — an attempt is a straggler once its elapsed time exceeds
    ``slowdown`` times its expected duration (gamma, plus the nominal fetch
    time for remote attempts). ``max_per_task`` bounds concurrent
    duplicates (:meth:`has_room`). ``enabled=False`` disables speculation
    entirely (ablation A5).

    The remote fetch term is derived per task from the block size and
    ``fetch_rate_bps`` (the network's uncontended host link rate). At zero
    a remote attempt is held to the same threshold as a local one — every
    ordinary remote fetch under contention then looks like a straggler and
    triggers spurious duplicates, so wiring code should always provide it.
    """

    enabled: bool = True
    slowdown: float = 2.0
    max_per_task: int = 1
    fetch_rate_bps: float = 0.0

    def __post_init__(self) -> None:
        if self.slowdown <= 1.0:
            raise ValueError(f"slowdown must exceed 1, got {self.slowdown}")
        if self.max_per_task < 0:
            raise ValueError("max_per_task must be >= 0")
        check_non_negative("fetch_rate_bps", self.fetch_rate_bps)

    def fetch_seconds(self, task: MapTask) -> float:
        """Nominal uncontended fetch time for the task's input block."""
        if self.fetch_rate_bps > 0.0:
            return task.block.size_bytes / self.fetch_rate_bps
        return 0.0

    def expected_duration(self, task: MapTask, remote: bool) -> float:
        """Nominal attempt duration used for the straggler threshold."""
        return task.gamma + (self.fetch_seconds(task) if remote else 0.0)

    def is_straggling(self, task: MapTask, now: float) -> bool:
        """Whether the task's live attempts justify a duplicate.

        A task with *no* live attempt (its only attempt died with its node
        and the JobTracker has not been told yet) is always a straggler; a
        task whose live attempts all exceed the slowdown threshold is too.
        """
        if not self.enabled or task.is_completed:
            return False
        live = task.live
        if not live:
            return True
        threshold_ok = True
        for attempt in live:
            expected = self.expected_duration(task, remote=attempt.source_node is not None)
            if attempt.elapsed(now) <= self.slowdown * expected:
                threshold_ok = False
                break
        return threshold_ok

    def has_room(self, task: MapTask) -> bool:
        """Whether the task's live speculative attempts are under the cap."""
        return task.speculative_count() < self.max_per_task

    def may_speculate(self, task: MapTask, node_id: NodeId, now: float) -> bool:
        """Whether ``node_id`` may duplicate a task the straggler scan listed:
        it still straggles, and the node is not already running it.

        The cap is :meth:`has_room`, checked by the scan: only a pick
        creates a speculative attempt, and a picked task leaves the list.
        """
        if not self.is_straggling(task, now):
            return False
        if any(a.node_id == node_id for a in task.live):
            return False
        return True
