"""Job, task, and attempt state machines.

One map task per input block (Section II.B). A task may be executed by
several *attempts* over its lifetime: re-executions after interruptions and
speculative duplicates; the first attempt to succeed completes the task.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.core.ids import NodeId
from repro.hdfs.blocks import Block, DfsFile
from repro.util.validation import check_positive

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulator.engine import EventHandle
    from repro.simulator.network import Transfer


class TaskState(enum.Enum):
    """Task life cycle."""

    PENDING = "pending"
    RUNNING = "running"
    COMPLETED = "completed"
    #: The task's input block has zero surviving replicas (permanent node
    #: losses destroyed them all); it can never run and no longer blocks
    #: job completion. Real Hadoop fails such jobs outright — abandoning
    #: the task instead keeps the makespan measurable under data loss.
    ABANDONED = "abandoned"


class AttemptState(enum.Enum):
    """Attempt life cycle."""

    FETCHING = "fetching"  # remote attempt streaming its input block
    RUNNING = "running"    # executing the map function
    SUCCEEDED = "succeeded"
    FAILED = "failed"      # the node was interrupted (or the fetch aborted)
    KILLED = "killed"      # lost a speculation race / job torn down


@dataclass(frozen=True)
class JobConf:
    """Tunables of the MapReduce runtime.

    ``scheduler`` selects the task-assignment policy (``"locality"`` is
    Hadoop's; ``"availability"`` is this repo's future-work extension).
    Speculation is a cluster setting (``ClusterConfig.speculation_enabled``
    feeds the JobTracker's :class:`SpeculationPolicy`), not a job one.
    """

    name: str = "job"
    scheduler: str = "locality"


@dataclass(eq=False, slots=True)
class TaskAttempt:
    """One execution attempt of a map task on a specific node.

    Identity semantics (``eq=False``): two attempts are the same object or
    different attempts, and both task and attempt are usable as dict keys.

    One slotted record per attempt (DESIGN.md §10). ``ordinal`` is the
    attempt's 1-based position in its task's history; :attr:`attempt_id`
    derives the ``{task_id}_a{n}`` name from it on read. ``timer``,
    ``transfer`` and ``fetch_retries`` are the executing TaskTracker's
    bookkeeping while the attempt is live: its one armed timer (the
    execution completion while RUNNING, the refetch backoff while a
    FETCHING attempt waits), its input fetch in flight, and the source
    retries it has used. Retiring clears the first two.
    """

    task: "MapTask"
    ordinal: int
    node_id: NodeId
    local: bool
    speculative: bool
    created_at: float
    state: AttemptState = AttemptState.FETCHING
    source_node: Optional[NodeId] = None
    fetch_started: Optional[float] = None
    exec_started: Optional[float] = None
    finished_at: Optional[float] = None
    timer: Optional["EventHandle"] = None
    transfer: Optional["Transfer"] = None
    fetch_retries: int = 0

    @property
    def attempt_id(self) -> str:
        return f"{self.task.task_id}_a{self.ordinal}"

    @property
    def is_live(self) -> bool:
        return self.state is AttemptState.FETCHING or self.state is AttemptState.RUNNING

    def retire(self, state: AttemptState, now: float) -> None:
        """Move to a terminal state and drop out of the task's live set."""
        if state is AttemptState.FETCHING or state is AttemptState.RUNNING:
            raise ValueError(f"{state} is not a terminal attempt state")
        self.state = state
        self.finished_at = now
        task = self.task
        live = task.live
        if live == (self,):
            task.live = ()  # the common case: the task's only attempt
        elif self in live:
            task.live = tuple(a for a in live if a is not self)

    def elapsed(self, now: float) -> float:
        """Wall time since the attempt was created."""
        return now - self.created_at

    def __repr__(self) -> str:
        kind = "local" if self.local else f"remote<-{self.source_node}"
        return f"TaskAttempt({self.attempt_id}, {kind}, {self.state.value})"


@dataclass(eq=False, slots=True)
class MapTask:
    """One map task: processes one input block for ``gamma`` seconds.

    Identity semantics (``eq=False``) so tasks can key dicts/sets.

    One slotted record per task (DESIGN.md §10) that keeps only what the
    running job needs: ``live`` (the attempts still holding a slot, a
    tuple rebuilt on the rare attempt event) and ``attempt_count`` (for
    the next attempt's ordinal). The attempt history and the winner live
    on the :class:`MapJob`, so a finished task holds the shared empty
    tuple and no task points at a retired attempt: an attempt's
    ``task`` is the only link between the two records, and dropping a
    job frees both by reference counting. Read ``live`` freely (a
    reader may iterate it while attempts retire, since a retirement
    rebinds it); only :meth:`new_attempt` and
    :meth:`TaskAttempt.retire` assign it.
    """

    task_id: str
    block: Block
    gamma: float
    state: TaskState = TaskState.PENDING
    live: Tuple[TaskAttempt, ...] = ()
    attempt_count: int = 0

    def __post_init__(self) -> None:
        # One task per block: the passing check runs inline, and the
        # validator is called only to raise its error.
        if not float(self.gamma) > 0:
            check_positive("gamma", self.gamma)

    @property
    def is_completed(self) -> bool:
        return self.state is TaskState.COMPLETED

    def speculative_count(self) -> int:
        """Live speculative attempts currently racing."""
        return sum(1 for a in self.live if a.speculative)

    def new_attempt(
        self,
        node_id: NodeId,
        local: bool,
        speculative: bool,
        now: float,
        source_node: Optional[NodeId] = None,
    ) -> TaskAttempt:
        """Create the next attempt of this task and count it live.

        The caller that runs a job records the attempt in
        :attr:`MapJob.attempts`; the task keeps only its count.
        """
        ordinal = self.attempt_count + 1
        attempt = TaskAttempt(
            task=self,
            ordinal=ordinal,
            node_id=node_id,
            local=local,
            speculative=speculative,
            created_at=now,
            source_node=source_node,
        )
        self.attempt_count = ordinal
        self.live += (attempt,)
        return attempt

    def __repr__(self) -> str:
        return f"MapTask({self.task_id}, {self.state.value}, attempts={self.attempt_count})"


class MapJob:
    """A submitted job: one map task per block of the input file.

    ``attempts`` is the job's attempt history: every attempt the
    JobTracker started, in creation order. :meth:`attempts_of` and
    :meth:`completed_by` look a task's attempts and its winner up in it.
    """

    def __init__(self, conf: JobConf, input_file: DfsFile, gammas: List[float]) -> None:
        if len(gammas) != input_file.num_blocks:
            raise ValueError(
                f"need one gamma per block: {len(gammas)} gammas for "
                f"{input_file.num_blocks} blocks"
            )
        self._conf = conf
        self._file = input_file
        self._tasks = [
            MapTask(f"{conf.name}_m{block.index:06d}", block, gamma)
            for block, gamma in zip(input_file.blocks, gammas, strict=True)
        ]
        self.submitted_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.attempts: List[TaskAttempt] = []

    @property
    def conf(self) -> JobConf:
        return self._conf

    @property
    def input_file(self) -> DfsFile:
        return self._file

    @property
    def tasks(self) -> List[MapTask]:
        return list(self._tasks)

    @property
    def num_tasks(self) -> int:
        return len(self._tasks)

    def task(self, task_id: str) -> MapTask:
        for task in self._tasks:
            if task.task_id == task_id:
                return task
        raise KeyError(task_id)

    def attempts_of(self, task: MapTask) -> List[TaskAttempt]:
        """``task``'s attempts, in creation order (a scan of :attr:`attempts`)."""
        return [attempt for attempt in self.attempts if attempt.task is task]

    def completed_by(self, task: MapTask) -> Optional[TaskAttempt]:
        """The attempt that completed ``task``, or None.

        That is the task's one SUCCEEDED attempt: the JobTracker kills a
        task's other live attempts when the first one succeeds.
        """
        for attempt in self.attempts:
            if attempt.task is task and attempt.state is AttemptState.SUCCEEDED:
                return attempt
        return None

    @property
    def total_base_work(self) -> float:
        """Aggregate failure-free execution time (the Figure 5 baseline)."""
        return sum(t.gamma for t in self._tasks)

    @property
    def is_complete(self) -> bool:
        return all(t.is_completed for t in self._tasks)

    @property
    def completed_count(self) -> int:
        return sum(1 for t in self._tasks if t.is_completed)

    @property
    def abandoned_count(self) -> int:
        """Tasks whose input block was destroyed (see TaskState.ABANDONED)."""
        return sum(1 for t in self._tasks if t.state is TaskState.ABANDONED)

    @property
    def makespan(self) -> float:
        """Map-phase elapsed time (defined once the job finished)."""
        if self.submitted_at is None or self.finished_at is None:
            raise ValueError("job has not finished")
        return self.finished_at - self.submitted_at

    @staticmethod
    def uniform(conf: JobConf, input_file: DfsFile, gamma: float) -> "MapJob":
        """Job whose tasks all share one failure-free length."""
        check_positive("gamma", gamma)
        return MapJob(conf, input_file, [gamma] * input_file.num_blocks)
