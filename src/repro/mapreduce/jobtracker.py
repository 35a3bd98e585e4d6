"""The JobTracker: schedules map tasks onto TaskTrackers.

Implements the Hadoop behaviour the paper describes (Section II.B):

* locality-first assignment through a pluggable
  :class:`~repro.mapreduce.scheduler.TaskScheduler`;
* remote execution ("straggler allocation to idle nodes") with block
  migration over the shared network;
* re-execution of interrupted tasks — on the same node once it returns, or
  elsewhere once the failure is detected, whichever comes first;
* speculative duplicates of straggling tasks, with losers killed;
* the full rework / recovery / migration / misc accounting of Figure 5.

Failure *detection* is decoupled from failure *occurrence*: TaskTrackers do
the physical accounting instantly, while the JobTracker only requeues work
when told (``handle_node_dead``, on a ``NodeDeclaredDead`` from the heartbeat
watchdog or an oracle, or ``on_node_available`` when the node itself
returns). Until then a stalled task stays "running" from the JobTracker's
point of view — which is exactly what makes it a speculation candidate.

``access_during_downtime`` (default True) models interruptions that evict
guest *computation* while the host's stored blocks stay streamable —
consistent with the paper's own semantics ("the interrupted task could also
be considered as a straggler, and be scheduled to another idle node,
leading to non-trivial data migration", with no replica constraints).
Setting it to False gives hard process-kill semantics where a down node's
replicas are unreadable (ablation).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.ids import NodeId
from repro.core.predictor import PerformancePredictor
from repro.hdfs.namenode import NameNode
from repro.mapreduce.job import MapJob, MapTask, TaskAttempt, TaskState
from repro.mapreduce.scheduler import SchedulerContext, TaskScheduler, make_scheduler
from repro.mapreduce.speculation import SpeculationPolicy
from repro.mapreduce.tasktracker import TaskTracker
from repro.simulator.engine import EventHandle, Simulator
from repro.simulator.events import (
    BlockLost,
    EventBus,
    NodeDeclaredDead,
    NodeDown,
    NodeUp,
    ReplicaAdded,
    TaskStateChange,
)
from repro.simulator.metrics import MapPhaseMetrics
from repro.simulator.network import Network
from repro.util.validation import check_positive


class JobTracker(SchedulerContext):
    """Central scheduler for a single map phase at a time."""

    def __init__(
        self,
        sim: Simulator,
        namenode: NameNode,
        network: Network,
        trackers: Dict[NodeId, TaskTracker],
        metrics: MapPhaseMetrics,
        access_during_downtime: bool = True,
        speculation: Optional[SpeculationPolicy] = None,
        sweep_interval: float = 3.0,
        bus: Optional[EventBus] = None,
    ) -> None:
        self._sim = sim
        self._namenode = namenode
        self._locations = namenode.locations
        self._network = network
        self._trackers = dict(sorted(trackers.items()))
        self._metrics = metrics
        self._access_down = access_during_downtime
        if speculation is None:
            # Default policy: derive the remote-fetch term from the wired
            # network's uncontended rate. A bare SpeculationPolicy() would
            # hold remote attempts to the local threshold (zero fetch
            # allowance) and speculate on every contended fetch.
            speculation = SpeculationPolicy(fetch_rate_bps=network.nominal_rate_bps)
        self._speculation = speculation
        self._sweep_interval = check_positive("sweep_interval", sweep_interval)
        self._bus = bus if bus is not None else EventBus()
        self._stopped = False

        self._job: Optional[MapJob] = None
        self._scheduler: Optional[TaskScheduler] = None
        self._tasks_by_block: Dict[str, MapTask] = {}
        self._running: Dict[MapTask, None] = {}  # insertion-ordered set
        self._limbo: Dict[NodeId, List] = {}  # node -> failed, not-yet-requeued attempts
        self._idle: Dict[NodeId, None] = {}  # insertion-ordered set of starved nodes
        self._down_since: Dict[NodeId, Optional[float]] = {}
        self._down_overlap: Dict[NodeId, float] = {}
        self._busy_baseline: Dict[NodeId, float] = {}
        self._completed = 0
        self._abandoned = 0
        self._num_tasks = 0
        #: Halt the simulator at the job's finish (armed by run_until_job_done only).
        self.halt_on_finish = False
        #: Blocks with zero surviving physical replicas — storage-level
        #: fact, so it survives across jobs.
        self._lost_blocks: Set[str] = set()
        self._sweep_event: Optional[EventHandle] = None
        self._on_complete: Optional[Callable[[MapJob], None]] = None
        # Straggler scan memoised per timestamp (cleared when time advances).
        self._spec_cache_time = -1.0
        self._spec_candidates: List[MapTask] = []

    # -- lifecycle ------------------------------------------------------------------

    @property
    def job(self) -> Optional[MapJob]:
        return self._job

    @property
    def is_done(self) -> bool:
        return self._job is not None and self._job.finished_at is not None

    @property
    def predictor(self) -> PerformancePredictor:
        return self._namenode.predictor

    def submit(
        self,
        job: MapJob,
        on_complete: Optional[Callable[[MapJob], None]] = None,
    ) -> None:
        """Start the map phase of ``job`` at the current simulation time."""
        if self._job is not None and not self.is_done:
            raise RuntimeError("a job is already running")
        self._job = job
        self._on_complete = on_complete
        self._scheduler = make_scheduler(job.conf.scheduler)
        self._running.clear()
        self._limbo.clear()
        self._idle.clear()
        self._completed = 0
        self._num_tasks = job.num_tasks
        job.submitted_at = self._sim.now
        self._busy_baseline = {}
        for node_id, tracker in self._trackers.items():
            self._down_since.setdefault(node_id, None)
            self._down_overlap[node_id] = 0.0
            self._busy_baseline[node_id] = tracker.busy_seconds
        self._abandoned = 0
        self._tasks_by_block = {task.block.block_id: task for task in job.tasks}
        for task in job.tasks:
            self._metrics.add_base(task.gamma)
            self._scheduler.enqueue(task, sorted(self.holders(task)))
        # A job submitted over already-destroyed blocks must not wait on
        # tasks that can never run.
        for task in job.tasks:
            if task.block.block_id in self._lost_blocks:
                self._abandon(task)
        if self.is_done:
            return
        for node_id, tracker in self._trackers.items():
            if tracker.is_up:
                self.try_assign(node_id)
        self._arm_sweep()

    # -- SchedulerContext -----------------------------------------------------------

    def is_assignable(self, task: MapTask) -> bool:
        return task.state is TaskState.PENDING

    def holders(self, task: MapTask) -> Sequence[NodeId]:
        return self._locations[task.block.block_id]

    def readable_holders(self, task: MapTask) -> Sequence[NodeId]:
        block_id = task.block.block_id
        # A holder whose physical storage lost the block (permanently failed
        # node, wiped but not yet purged from the location map) can never
        # serve it — even under soft access_during_downtime semantics.
        holders = [
            h for h in self._locations[block_id] if self._namenode.datanode(h).has_block(block_id)
        ]
        if self._access_down:
            return holders
        return [h for h in holders if self._namenode.datanode(h).is_up]

    def alternative_source(
        self,
        task: MapTask,
        reader: NodeId,
        exclude: Optional[NodeId] = None,
    ) -> Optional[NodeId]:
        """Best readable replica for a degraded-read retry, or None.

        ``exclude`` is the source that just failed; it is avoided when any
        other replica is readable, but allowed back as a last resort (it
        may have recovered by the time the backoff fires).
        """
        sources = [h for h in self.readable_holders(task) if h != reader]
        if not sources:
            return None
        pool = [h for h in sources if h != exclude] or sources
        return self.choose_source(task, pool)

    def choose_source(self, task: MapTask, sources: Sequence[NodeId]) -> NodeId:
        """Stream from the least-loaded replica (ties broken lexically)."""
        if len(sources) == 1:
            return sources[0]  # a lone replica needs no ranking
        return min(sources, key=lambda h: (self._network.outgoing_count(h), h))

    def holder_unavailability(self, node_id: NodeId) -> float:
        estimate = self._namenode.predictor.estimate(node_id)
        return 1.0 - estimate.steady_state_availability

    def _note_task_state(self, task: MapTask, node_id: Optional[NodeId] = None) -> None:
        """Publish a :class:`TaskStateChange` (observability only).

        Callers guard it with :meth:`EventBus.wants`, so the hot path pays
        nothing, not even this call, when no tap or handler listens.
        """
        self._bus.publish(
            TaskStateChange(
                time=self._sim.now,
                task_id=task.task_id,
                state=task.state.name,
                node_id=node_id,
            )
        )

    # -- assignment -------------------------------------------------------------------

    def try_assign(self, node_id: NodeId) -> None:
        """Hand the node as much work as its slots allow."""
        job = self._job
        if self._stopped or job is None or job.finished_at is not None or self._scheduler is None:
            return
        tracker = self._trackers[node_id]
        if not tracker.is_up:
            self._idle.pop(node_id, None)
            return
        while tracker.free_slots > 0:
            picked = self._scheduler.pick(node_id, self)
            speculative = False
            if picked is None and self._speculation.enabled:
                picked = self._pick_speculative(node_id)
                speculative = picked is not None
            if picked is None:
                break
            task, source = picked
            self._assign(job, node_id, task, source, speculative)
        if tracker.free_slots > 0:
            self._idle[node_id] = None
        else:
            self._idle.pop(node_id, None)

    def _assign(
        self,
        job: MapJob,
        node_id: NodeId,
        task: MapTask,
        source: Optional[NodeId],
        speculative: bool,
    ) -> None:
        attempt = task.new_attempt(
            node_id=node_id,
            local=source is None,
            speculative=speculative,
            now=self._sim.now,
            source_node=source,
        )
        job.attempts.append(attempt)
        if speculative:
            self._metrics.speculative_attempts += 1
        task.state = TaskState.RUNNING
        self._running[task] = None
        if self._bus.wants(TaskStateChange):
            self._note_task_state(task, node_id)
        self._trackers[node_id].execute(attempt)

    def _straggler_candidates(self) -> List[MapTask]:
        """Straggling tasks with speculation capacity, worst first.

        The scan over all running tasks is memoised per simulation
        timestamp: straggler status only depends on the clock and on
        attempt events, and every attempt event advances or reuses the
        cached list (picked tasks are removed from it eagerly).
        """
        now = self._sim.now
        # Monotonic clock: "cache stale" is "clock advanced", not float
        # identity (simlint D004).
        if self._spec_cache_time < now:
            scored: List[Tuple[int, float, MapTask]] = []
            for task in self._running:
                if not self._speculation.is_straggling(task, now):
                    continue
                if not self._speculation.has_room(task):
                    continue
                live = task.live
                if live:
                    scored.append((1, -max(a.elapsed(now) for a in live), task))
                else:
                    scored.append((0, 0.0, task))  # stalled: node died silently
            scored.sort(key=lambda item: (item[0], item[1]))
            self._spec_candidates = [task for _stalled, _score, task in scored]
            self._spec_cache_time = now
        return self._spec_candidates

    def _pick_speculative(self, node_id: NodeId) -> Optional[Tuple[MapTask, Optional[NodeId]]]:
        """Find the most-stalled straggler this node can duplicate."""
        now = self._sim.now
        for task in list(self._straggler_candidates()):
            if not self._speculation.may_speculate(task, node_id, now):
                if task.is_completed:
                    self._spec_candidates.remove(task)
                continue
            if node_id in self.holders(task) and self._namenode.datanode(node_id).has_block(
                task.block.block_id
            ):
                self._spec_candidates.remove(task)
                return task, None
            sources = [h for h in self.readable_holders(task) if h != node_id]
            if not sources:
                continue
            self._spec_candidates.remove(task)
            return task, self.choose_source(task, sources)
        return None

    # -- attempt outcomes ---------------------------------------------------------------

    def on_attempt_succeeded(self, attempt: TaskAttempt) -> None:
        """A TaskTracker finished an attempt."""
        task: MapTask = attempt.task
        if task.state is TaskState.COMPLETED:
            return
        task.state = TaskState.COMPLETED
        self._running.pop(task, None)
        if self._bus.wants(TaskStateChange):
            self._note_task_state(task, attempt.node_id)
        self._completed += 1
        self._metrics.record_completion(local=attempt.local)
        freed = [attempt.node_id]
        for other in task.live:
            self._trackers[other.node_id].kill(other)
            freed.append(other.node_id)
        if self._completed + self._abandoned == self._num_tasks:
            self._finish()
            return
        for node_id in freed:
            self.try_assign(node_id)

    def on_attempt_failed(self, attempt: TaskAttempt) -> None:
        """A TaskTracker reports an attempt died (accounting already done)."""
        if self._job is None or self.is_done:
            return
        task: MapTask = attempt.task
        if task.is_completed:
            return
        node_id = attempt.node_id
        if self._trackers[node_id].is_up:
            # The node survived (the *source* side broke a fetch): retry now.
            self._maybe_requeue(task)
            self.try_assign(node_id)
        else:
            # The node died with the attempt; requeue when the JobTracker
            # hears about it (detection or the node's return).
            self._limbo.setdefault(node_id, []).append(attempt)

    def _maybe_requeue(self, task: MapTask) -> None:
        if task.is_completed or task.live:
            return
        if task.state is TaskState.ABANDONED:
            return
        if task.block.block_id in self._lost_blocks:
            self._abandon(task)
            return
        if task.state is TaskState.PENDING:
            return  # already queued
        task.state = TaskState.PENDING
        self._running.pop(task, None)
        if self._bus.wants(TaskStateChange):
            self._note_task_state(task)
        assert self._scheduler is not None
        holders = sorted(self.holders(task))
        self._scheduler.enqueue(task, holders)
        # Poke the nodes that could take it: its holders first, else any
        # starved node (one is enough; any idle node can steal remotely).
        for holder in holders:
            if holder in self._idle:
                self.try_assign(holder)
                if not self.is_assignable(task):
                    return
        # Any starved node can steal it remotely; a few pokes almost always
        # place it, and the periodic sweep mops up the rare leftover.
        for node_id in list(self._idle)[:4]:
            self.try_assign(node_id)
            if not self.is_assignable(task):
                return

    def _abandon(self, task: MapTask) -> None:
        """Give up on a task whose input block no longer exists anywhere."""
        if task.is_completed or task.state is TaskState.ABANDONED:
            return
        task.state = TaskState.ABANDONED
        self._running.pop(task, None)
        if self._bus.wants(TaskStateChange):
            self._note_task_state(task)
        self._abandoned += 1
        if self._completed + self._abandoned == self._num_tasks:
            self._finish()

    # -- bus handlers ---------------------------------------------------------------------

    def handle_node_down_physical(self, event: NodeDown) -> None:
        """Bus handler (ACCOUNTING phase): count the interruption and open
        the node's downtime interval (recovery-time accounting only)."""
        self._metrics.interruptions += 1
        self._down_since[event.node_id] = event.time
        self._idle.pop(event.node_id, None)

    def handle_node_up_physical(self, event: NodeUp) -> None:
        """Bus handler (ACCOUNTING phase): count the return and close the
        node's downtime interval."""
        self._metrics.node_returns += 1
        node_id = event.node_id
        started = self._down_since.get(node_id)
        self._down_since[node_id] = None
        if started is None:
            return
        if self._job is not None and self._job.submitted_at is not None and not self.is_done:
            overlap_start = max(started, self._job.submitted_at)
            if event.time > overlap_start:
                self._down_overlap[node_id] = (
                    self._down_overlap.get(node_id, 0.0) + event.time - overlap_start
                )

    def handle_node_dead(self, event: NodeDeclaredDead) -> None:
        """Bus handler (SCHEDULING phase): failure detection fired (heartbeat
        timeout or oracle), so the dead node's limbo is requeued."""
        for attempt in self._limbo.pop(event.node_id, []):
            self._maybe_requeue(attempt.task)

    def handle_block_lost(self, event: BlockLost) -> None:
        """Bus handler (SCHEDULING phase): permanent failures destroyed the
        block's last physical replica.

        Tasks over the block can never (re-)run. A live attempt already
        streamed (or holds) its input, so it may still succeed — if it later
        fails, :meth:`_maybe_requeue` abandons the task then.
        """
        self._lost_blocks.add(event.block_id)
        if self._job is None or self.is_done:
            return
        task = self._tasks_by_block.get(event.block_id)
        if task is None or task.is_completed:
            return
        if not task.live:
            self._abandon(task)

    def handle_replica_added(self, event: ReplicaAdded) -> None:
        """Bus handler (SCHEDULING phase): a re-replication copy landed, so
        the replica map moved under us.

        If the block's task is still pending, the new holder opens a fresh
        locality opportunity — enqueue it node-locally and poke the node.
        """
        if self._job is None or self.is_done or self._scheduler is None:
            return
        task = self._tasks_by_block.get(event.block_id)
        if task is None:
            return
        if self.is_assignable(task):
            self._scheduler.enqueue(task, [event.node_id])
        self.try_assign(event.node_id)

    # -- cluster signals ------------------------------------------------------------------

    def on_node_available(self, node_id: NodeId) -> None:
        """The node (physically) returned and is asking for work."""
        for attempt in self._limbo.pop(node_id, []):
            self._maybe_requeue(attempt.task)
        released = 0
        if self._scheduler is not None:
            released = self._scheduler.on_node_returned(node_id)
        if self._job is None or self.is_done:
            return
        self.try_assign(node_id)
        if released:
            # Previously-unreachable blocks are streamable again; starved
            # nodes can pick them up (requeues above poke idle nodes
            # themselves inside _maybe_requeue).
            for idle_node in list(self._idle):
                self.try_assign(idle_node)

    # -- end-game sweep ----------------------------------------------------------------------

    def _arm_sweep(self) -> None:
        if self._stopped:
            return
        self._sweep_event = self._sim.schedule(
            self._sweep_interval, self._sweep, label="jt-sweep"
        )

    def _sweep(self) -> None:
        """Periodic re-poll of starved nodes (speculation windows open with
        time, so idleness is not a stable state)."""
        self._sweep_event = None
        if self._job is None or self.is_done:
            return
        for node_id in list(self._idle):
            self.try_assign(node_id)
        self._arm_sweep()

    # -- completion -------------------------------------------------------------------------

    def _finish(self) -> None:
        assert self._job is not None and self._job.submitted_at is not None
        job = self._job
        job.finished_at = self._sim.now
        if self._sweep_event is not None:
            self._sweep_event.cancel()
            self._sweep_event = None
        submitted = job.submitted_at
        finished = job.finished_at
        recovery_total = 0.0
        idle_total = 0.0
        for node_id, tracker in self._trackers.items():
            overlap = self._down_overlap.get(node_id, 0.0)
            started = self._down_since.get(node_id)
            if started is not None:
                open_start = max(started, submitted)
                if finished > open_start:
                    overlap += finished - open_start
            recovery_total += overlap
            makespan = finished - submitted
            busy = tracker.busy_seconds - self._busy_baseline.get(node_id, 0.0)
            idle = makespan - busy - overlap
            idle_total += max(idle, 0.0)
        self._metrics.add_recovery(recovery_total)
        self._metrics.add_idle(idle_total)
        if self._on_complete is not None:
            self._on_complete(job)
        if self.halt_on_finish:
            self._sim.halt()

    # -- service lifecycle --------------------------------------------------------------------

    def start(self) -> None:
        """No startup work; scheduling begins at :meth:`submit`."""

    def stop(self) -> None:
        """Disarm the sweep and refuse further assignment (teardown)."""
        self._stopped = True
        if self._sweep_event is not None:
            self._sweep_event.cancel()
            self._sweep_event = None
