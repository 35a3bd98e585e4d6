"""Task assignment policies.

Hadoop's rule (Section II.B): "under the design principle of data locality,
each host first uses its best effort to run local tasks"; only a node with
no local pending work steals a pending task from elsewhere, triggering data
migration. :class:`LocalityFirstScheduler` implements exactly that with a
per-node local queue plus a global FIFO.

:class:`AvailabilityAwareScheduler` is the paper's *future work* ("we plan
to develop an availability-aware MapReduce job scheduling strategy")
implemented as an extension: remote steals drain the backlog of the
least-available holders first, so blocks stranded on doomed nodes migrate
before the end-game.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.core.ids import NodeId
from repro.mapreduce.job import MapTask

#: An assignment: the task plus the node to stream the block from
#: (``None`` for a local read).
Assignment = Tuple[MapTask, Optional[NodeId]]


class SchedulerContext(ABC):
    """What a scheduler may ask the JobTracker."""

    @abstractmethod
    def is_assignable(self, task: MapTask) -> bool:
        """Pending, not completed, and with no live attempt."""

    @abstractmethod
    def holders(self, task: MapTask) -> Sequence[NodeId]:
        """All replica holders of the task's block (sort it for an order)."""

    @abstractmethod
    def readable_holders(self, task: MapTask) -> Sequence[NodeId]:
        """Holders whose stored replica can currently be streamed."""

    @abstractmethod
    def choose_source(self, task: MapTask, sources: Sequence[NodeId]) -> NodeId:
        """Pick the replica to stream from."""

    @abstractmethod
    def holder_unavailability(self, node_id: NodeId) -> float:
        """Score in [0, 1]: how unavailable the holder is believed to be."""


class TaskScheduler(ABC):
    """Owns the pending-task structures and picks work for idle nodes."""

    @abstractmethod
    def enqueue(self, task: MapTask, holders: Sequence[NodeId]) -> None:
        """Add a (newly pending or requeued) task."""

    @abstractmethod
    def pick(self, node_id: NodeId, ctx: SchedulerContext) -> Optional[Assignment]:
        """Choose work for an idle node, or None if nothing is assignable."""

    @abstractmethod
    def on_node_returned(self, node_id: NodeId) -> int:
        """A holder came back: blocked tasks may be streamable again.

        Returns the number of parked tasks released back into the queue.
        """

    @abstractmethod
    def pending_hint(self) -> int:
        """Upper bound on pending entries (may include stale ones)."""


class LocalityFirstScheduler(TaskScheduler):
    """Hadoop's locality-first FIFO."""

    def __init__(self) -> None:
        self._local: Dict[NodeId, Deque[MapTask]] = {}
        self._global: Deque[MapTask] = deque()
        self._blocked: List[MapTask] = []

    def enqueue(self, task: MapTask, holders: Sequence[NodeId]) -> None:
        for node_id in holders:
            self._local.setdefault(node_id, deque()).append(task)
        self._global.append(task)

    def on_node_returned(self, node_id: NodeId) -> int:
        released = len(self._blocked)
        if released:
            self._global.extend(self._blocked)
            self._blocked.clear()
        return released

    def pending_hint(self) -> int:
        return len(self._global) + len(self._blocked)

    def pick(self, node_id: NodeId, ctx: SchedulerContext) -> Optional[Assignment]:
        local = self._local.get(node_id)
        if local:
            while local:
                task = local.popleft()
                if ctx.is_assignable(task) and node_id in ctx.holders(task):
                    return task, None
        return self._pick_remote(node_id, ctx)

    def _pick_remote(self, node_id: NodeId, ctx: SchedulerContext) -> Optional[Assignment]:
        while self._global:
            task = self._global.popleft()
            if not ctx.is_assignable(task):
                continue  # stale entry (running or completed)
            if node_id in ctx.holders(task):
                return task, None  # turned out to be local after all
            sources = ctx.readable_holders(task)
            if not sources:
                # No replica is streamable right now; park it until a
                # holder returns.
                self._blocked.append(task)
                continue
            return task, ctx.choose_source(task, sources)
        return None


class AvailabilityAwareScheduler(LocalityFirstScheduler):
    """Extension: steal from the least-available holders first.

    Remote picks scan a bounded window of the global queue and take the
    task whose best holder has the highest believed unavailability. Local
    assignment (and everything else) is inherited from locality-first, so
    the extension changes *migration order* only.
    """

    def __init__(self, scan_window: int = 32) -> None:
        super().__init__()
        if scan_window < 1:
            raise ValueError(f"scan_window must be >= 1, got {scan_window}")
        self._window = scan_window

    def _pick_remote(self, node_id: NodeId, ctx: SchedulerContext) -> Optional[Assignment]:
        candidates: List[Tuple[float, MapTask, Optional[NodeId]]] = []
        scanned: List[MapTask] = []
        while self._global and len(candidates) < self._window:
            task = self._global.popleft()
            if not ctx.is_assignable(task):
                continue
            if node_id in ctx.holders(task):
                # Local work trumps any steal ordering.
                self._global.extendleft(reversed(scanned))
                return task, None
            sources = ctx.readable_holders(task)
            if not sources:
                self._blocked.append(task)
                continue
            score = min(ctx.holder_unavailability(h) for h in ctx.holders(task))
            candidates.append((score, task, ctx.choose_source(task, sources)))
            scanned.append(task)
        if not candidates:
            return None
        best = max(candidates, key=lambda item: item[0])
        _score, chosen, source = best
        for task in scanned:
            if task is not chosen:
                self._global.append(task)
        return chosen, source


_SCHEDULERS: Dict[str, Callable[[], TaskScheduler]] = {
    "locality": LocalityFirstScheduler,
    "availability": AvailabilityAwareScheduler,
}


def make_scheduler(name: str) -> TaskScheduler:
    """Build a scheduler by name: ``locality`` or ``availability``."""
    try:
        factory = _SCHEDULERS[name.lower()]
    except KeyError:
        known = ", ".join(sorted(_SCHEDULERS))
        raise ValueError(f"unknown scheduler {name!r}; known: {known}") from None
    return factory()
