"""TaskTracker: per-node task execution under interruptions.

Executes attempts the JobTracker assigns: a local attempt runs for the
task's failure-free length gamma; a remote attempt first streams its block
from the source node over the shared network ("migration"), then runs.

Interruption semantics follow Section II.B: when the node goes down, every
live attempt dies instantly — its partial execution is *rework*, its
partial fetch wasted *migration* — and the blocks it stores persist. The
TaskTracker does all physical accounting at the instant of failure; the
JobTracker decides *when* to reschedule (it may not learn of the failure
until a heartbeat timeout or the node's return).

Hardened read path: when a remote fetch is torn down from the *source*
side (the holder died mid-stream, or its disk was wiped), the attempt is
not failed outright. If another readable replica exists, the fetch is
retried against it after an exponential backoff, up to ``fetch_retries``
times per attempt; only when the retries run out — or no surviving
replica is readable — does the attempt fail back to the JobTracker. The
backoff wait is charged to migration time (the slot is occupied acquiring
remote data), which keeps the slot-time conservation law exact.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.core.ids import NodeId
from repro.mapreduce.job import AttemptState, TaskAttempt
from repro.simulator.engine import Simulator
from repro.simulator.metrics import DurabilityMetrics, MapPhaseMetrics
from repro.simulator.network import Network, Transfer
from repro.util.validation import check_positive

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mapreduce.jobtracker import JobTracker
    from repro.simulator.events import NodeDegraded, NodeDown, NodeRestored, NodeUp


class TaskTracker:
    """Execution agent for one node.

    Instances are slotted (see :class:`~repro.hdfs.datanode.DataNode`
    for the rationale — per-host ``__dict__`` s dominate construction at
    226k nodes).

    The tracker keeps one insertion-ordered map of the attempts holding
    its slots, keyed by the attempt itself. Each attempt's lifecycle
    state (its armed timer, its fetch in flight, its retries used) lives
    on the :class:`~repro.mapreduce.job.TaskAttempt` record, so nothing
    here is keyed by attempt id (DESIGN.md §10).
    """

    __slots__ = (
        "_sim",
        "_node_id",
        "_network",
        "_metrics",
        "_slots",
        "free_slots",
        "_fetch_retries",
        "_fetch_backoff",
        "_durability",
        "_is_up",
        "_jobtracker",
        "_live",
        "_busy_seconds",
        "_exec_factor",
    )

    def __init__(
        self,
        sim: Simulator,
        node_id: NodeId,
        network: Network,
        metrics: MapPhaseMetrics,
        slots: int = 1,
        fetch_retries: int = 0,
        fetch_backoff: float = 1.0,
        durability: Optional[DurabilityMetrics] = None,
    ) -> None:
        if slots < 1:
            raise ValueError(f"slots must be >= 1, got {slots}")
        if fetch_retries < 0:
            raise ValueError(f"fetch_retries must be >= 0, got {fetch_retries}")
        check_positive("fetch_backoff", fetch_backoff)
        self._sim = sim
        self._node_id = node_id
        self._network = network
        self._metrics = metrics
        self._slots = slots
        #: ``slots - len(_live)``, kept by execute and _retire (read it, never assign it).
        self.free_slots = slots
        self._fetch_retries = fetch_retries
        self._fetch_backoff = fetch_backoff
        self._durability = durability
        self._is_up = True
        self._jobtracker: Optional["JobTracker"] = None
        #: Attempts occupying slots, in the order they were given them.
        self._live: Dict[TaskAttempt, None] = {}
        self._busy_seconds = 0.0
        #: Gray-node execution slowdown (1.0 = nominal). Applies to
        #: attempts *starting* execution while degraded.
        self._exec_factor = 1.0

    def bind(self, jobtracker: Optional["JobTracker"]) -> None:
        """Attach the JobTracker after construction; ``None`` detaches it
        again at teardown, so the two no longer reference each other."""
        self._jobtracker = jobtracker

    # -- state -------------------------------------------------------------------

    @property
    def node_id(self) -> NodeId:
        return self._node_id

    @property
    def is_up(self) -> bool:
        return self._is_up

    @property
    def slots(self) -> int:
        return self._slots

    @property
    def busy_seconds(self) -> float:
        """Cumulative slot-occupied time of terminal attempts (for idle
        accounting); live attempts are folded in when they end."""
        return self._busy_seconds

    @property
    def running_attempts(self) -> int:
        return len(self._live)

    def live_attempts(self) -> "list[TaskAttempt]":
        """Snapshot of the attempts currently occupying slots (for audits)."""
        return list(self._live)

    # -- execution ------------------------------------------------------------------

    def execute(self, attempt: TaskAttempt) -> None:
        """Run an attempt (fetch first if it is remote)."""
        if not self._is_up:
            raise RuntimeError(f"{self._node_id} is down; cannot execute {attempt}")
        if self.free_slots <= 0:
            raise RuntimeError(f"{self._node_id} has no free slot for {attempt}")
        if attempt.node_id != self._node_id:
            raise ValueError(f"{attempt} belongs to {attempt.node_id}, not {self._node_id}")
        self._live[attempt] = None
        self.free_slots -= 1
        if attempt.source_node is None:
            self._start_exec(attempt)
        else:
            attempt.state = AttemptState.FETCHING
            self._start_fetch(attempt, attempt.source_node)

    def _start_fetch(self, attempt: TaskAttempt, source: NodeId) -> None:
        attempt.source_node = source
        attempt.fetch_started = self._sim.now
        attempt.transfer = self._network.start_transfer(
            source=source,
            destination=self._node_id,
            size_bytes=attempt.task.block.size_bytes,
            on_complete=lambda t, a=attempt: self._on_fetch_done(a, t),
            on_cancel=lambda t, a=attempt: self._on_fetch_cancelled(a, t),
            label="fetch",
        )

    def _start_exec(self, attempt: TaskAttempt) -> None:
        sim = self._sim
        attempt.state = AttemptState.RUNNING
        attempt.exec_started = now = sim.now
        # Useful time must match the slot time actually occupied, so a
        # slowed attempt's completion credits its stretched duration,
        # keeping the conservation law exact.
        duration = attempt.task.gamma * self._exec_factor
        attempt.timer = sim.schedule_at(
            now + duration, lambda: self._on_exec_done(attempt, duration), "exec"
        )

    def _on_exec_done(self, attempt: TaskAttempt, duration: float) -> None:
        attempt.timer = None
        self._retire(attempt, AttemptState.SUCCEEDED)
        self._metrics.add_useful(duration)
        assert self._jobtracker is not None
        self._jobtracker.on_attempt_succeeded(attempt)

    def _on_fetch_done(self, attempt: TaskAttempt, transfer: Transfer) -> None:
        if attempt.state is not AttemptState.FETCHING:
            return  # already failed/killed; late completion is moot
        attempt.transfer = None
        self._metrics.add_migration(transfer.duration)
        self._start_exec(attempt)

    def _on_fetch_cancelled(self, attempt: TaskAttempt, transfer: Transfer) -> None:
        """The network tore the fetch down (a permanent failure wiped an endpoint).

        If the node itself is still up, another readable replica exists and
        the retry budget allows, the fetch is retried against a surviving
        replica after an exponential backoff instead of failing the attempt.
        """
        if attempt.state is not AttemptState.FETCHING:
            return  # we initiated the cancel ourselves; already accounted
        attempt.transfer = None
        assert attempt.fetch_started is not None
        self._metrics.add_migration(self._sim.now - attempt.fetch_started)
        assert self._jobtracker is not None
        used = attempt.fetch_retries
        if (
            self._is_up
            and used < self._fetch_retries
            and self._jobtracker.alternative_source(
                attempt.task, reader=self._node_id, exclude=transfer.source
            )
            is not None
        ):
            attempt.fetch_retries = used + 1
            if self._durability is not None:
                self._durability.degraded_read_retries += 1
            # The attempt keeps its slot while waiting; fetch_started marks
            # the start of the wait so the backoff is charged to migration
            # when it ends (retry fires, node dies, or speculation kills us).
            attempt.fetch_started = self._sim.now
            delay = self._fetch_backoff * (2.0 ** used)
            attempt.timer = self._sim.schedule(
                delay, lambda: self._refetch(attempt), label="refetch"
            )
            return
        self._retire(attempt, AttemptState.FAILED)
        self._jobtracker.on_attempt_failed(attempt)

    def _refetch(self, attempt: TaskAttempt) -> None:
        """Backoff elapsed: fetch again from the best surviving replica."""
        attempt.timer = None
        if attempt.state is not AttemptState.FETCHING or not self._is_up:
            return  # killed / node died while waiting; already accounted
        assert attempt.fetch_started is not None
        self._metrics.add_migration(self._sim.now - attempt.fetch_started)
        assert self._jobtracker is not None
        source = self._jobtracker.alternative_source(
            attempt.task, reader=self._node_id, exclude=attempt.source_node
        )
        if source is None:
            # The replica set changed during the backoff; give up cleanly.
            self._retire(attempt, AttemptState.FAILED)
            self._jobtracker.on_attempt_failed(attempt)
            return
        self._start_fetch(attempt, source)

    # -- interruption handling ---------------------------------------------------------

    def handle_node_down(self, event: "NodeDown") -> None:
        """Bus handler (COMPUTE phase, keyed by this node's id): the host
        was interrupted, so every live attempt dies right now."""
        self._is_up = False
        for attempt in list(self._live):
            if attempt.state is AttemptState.RUNNING:
                assert attempt.exec_started is not None
                self._metrics.add_rework(self._sim.now - attempt.exec_started)
            elif attempt.state is AttemptState.FETCHING:
                # An armed retry has no transfer; fetch_started then marks
                # the start of the backoff wait, charged the same way.
                assert attempt.fetch_started is not None
                self._metrics.add_migration(self._sim.now - attempt.fetch_started)
            self._retire(attempt, AttemptState.FAILED)
            assert self._jobtracker is not None
            self._jobtracker.on_attempt_failed(attempt)

    def handle_node_up(self, event: "NodeUp") -> None:
        """Bus handler (SCHEDULING phase, keyed by this node's id): the
        host returned and asks for work, only after storage and detection
        have settled."""
        self._is_up = True
        assert self._jobtracker is not None
        self._jobtracker.on_node_available(self._node_id)

    def handle_node_degraded(self, event: "NodeDegraded") -> None:
        """Bus handler (COMPUTE phase, keyed): enter the gray regime, which
        scales execution time for attempts that start while it is in force.

        Attempts already running keep their scheduled completion; their
        useful-time credit was fixed at start, so accounting stays exact
        whichever side of a window boundary they straddle.
        """
        if event.exec_factor < 1.0:
            raise ValueError(f"exec factor must be >= 1, got {event.exec_factor}")
        self._exec_factor = event.exec_factor

    def handle_node_restored(self, event: "NodeRestored") -> None:
        """Bus handler (COMPUTE phase, keyed): back to nominal speed."""
        self._exec_factor = 1.0

    def kill(self, attempt: TaskAttempt) -> None:
        """Abort an attempt that lost a speculation race (or job teardown)."""
        if not attempt.is_live:
            return
        if attempt.state is AttemptState.RUNNING:
            assert attempt.exec_started is not None
            self._metrics.add_duplicate(self._sim.now - attempt.exec_started)
        elif attempt.state is AttemptState.FETCHING:
            assert attempt.fetch_started is not None
            self._metrics.add_migration(self._sim.now - attempt.fetch_started)
        self._retire(attempt, AttemptState.KILLED)

    # -- service lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        """No startup work; execution begins when the JobTracker assigns."""

    def stop(self) -> None:
        """Kill every live attempt (teardown): frees exec timers, fetch
        transfers and armed retries so the simulator heap can drain."""
        for attempt in list(self._live):
            self.kill(attempt)

    # -- internals -----------------------------------------------------------------------

    def _retire(self, attempt: TaskAttempt, state: AttemptState) -> None:
        """Free the attempt's slot: disarm its timer, then (with the
        attempt already terminal, so the network's cancel callback is
        moot) tear down its fetch."""
        attempt.retire(state, self._sim.now)
        if attempt in self._live:
            del self._live[attempt]
            self.free_slots += 1
        timer = attempt.timer
        if timer is not None:
            attempt.timer = None
            timer.cancel()
        assert attempt.finished_at is not None
        self._busy_seconds += attempt.finished_at - attempt.created_at
        transfer = attempt.transfer
        if transfer is not None:
            attempt.transfer = None
            self._network.cancel(transfer)

    def __repr__(self) -> str:
        state = "up" if self._is_up else "down"
        return f"TaskTracker({self._node_id!r}, {state}, live={len(self._live)})"
