"""Failure injection: the one owner of each node's physical up/down state.

Each attached node is driven by the one episode stream it is handed
(:meth:`FailureInjector.attach_host`). Which stream that is, ``build_cluster``
decides per host: its
:class:`~repro.availability.process.InterruptionProcess` sampled lazily,
an episode prefix materialised up to ``ClusterConfig.pregen_horizon``
(within the horizon it fires the lazy stream's transitions), or a
recorded :class:`~repro.availability.traces.AvailabilityTrace` replayed
as is. A lazily sampled busy period that is still open when it
begins (:class:`~repro.availability.process.OpenEpisode`) queues its
return with :meth:`~repro.simulator.engine.Simulator.schedule_lazy`, so
its fold runs only as far as the clock gets. Everything else reads a
node's physical state here (:meth:`FailureInjector.is_down`) or reacts
to its transitions; nothing keeps a copy.

Transitions are published on the cluster's typed event bus
(:mod:`repro.simulator.events`) as :class:`~repro.simulator.events.NodeDown`
/ :class:`~repro.simulator.events.NodeUp` /
:class:`~repro.simulator.events.PermanentFailure` events, dispatched
through the bus's explicit phases at the exact simulated instant of the
transition. Observers subscribe to those events on :attr:`FailureInjector.bus`.

Beyond the recoverable episodes above, the injector can model *permanent*
node loss (a downtime episode that never ends — the volunteer left and the
disk is gone) via :meth:`FailureInjector.schedule_permanent_failure`, and
*correlated* multi-node outages (a switch or site failure taking several
hosts down at once) via :meth:`FailureInjector.schedule_outage`. Permanent
loss publishes ``PermanentFailure`` *first* (the disk is destroyed at the
failure instant — storage layers wipe and account before anything
reacts), then ``NodeDown`` (if the node was still up), so subscribers can
distinguish "blocks temporarily unreachable" from "replicas destroyed".

:meth:`FailureInjector.stop` tears the injector down: every armed event is
cancelled, so an abandoned cluster cannot fire transitions into torn-down
state.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from repro.availability.process import DowntimeEpisode, Episode, OpenEpisode
from repro.core.ids import NodeId
from repro.simulator.engine import EventHandle, Resolution, Simulator
from repro.simulator.events import (
    EventBus,
    NodeDown,
    NodeUp,
    PermanentFailure,
)

class FailureInjector:
    """Schedules downtime episodes and publishes transitions on the bus."""

    def __init__(self, sim: Simulator, bus: Optional[EventBus] = None) -> None:
        self._sim = sim
        self._bus = bus if bus is not None else EventBus()
        self._episode_streams: Dict[NodeId, Iterator[Episode]] = {}
        self._is_down: Dict[NodeId, bool] = {}
        self._episode_counts: Dict[NodeId, int] = {}
        self._permanent: Dict[NodeId, bool] = {}
        #: Chaos delayed-recovery: per-node multiplier applied to the
        #: remaining downtime of episodes that *begin* while it is set.
        self._recovery_stretch: Dict[NodeId, float] = {}
        #: The one armed stream event per node (next begin, or current end).
        self._stream_events: Dict[NodeId, Optional[EventHandle]] = {}
        #: Armed events from schedule_outage / schedule_permanent_failure.
        self._injected_events: List[EventHandle] = []
        self._stopped = False

    # -- subscriptions -----------------------------------------------------------

    @property
    def bus(self) -> EventBus:
        """The bus this injector publishes transitions on."""
        return self._bus

    # -- attachment ---------------------------------------------------------------

    def attach_host(self, node_id: NodeId, episodes: Optional[Iterable[Episode]]) -> None:
        """Drive ``node_id`` from ``episodes``, or never interrupt it (None).

        ``episodes`` yields the node's downtime episodes in start order;
        the injector pulls one at a time, when the previous one has ended.
        ``build_cluster`` chooses each host's stream (a lazy
        :func:`~repro.availability.pregen.host_stream`, a materialised
        :func:`~repro.availability.pregen.episode_prefix`, or a replayed
        :meth:`~repro.availability.traces.AvailabilityTrace.episodes`);
        this is the one place any of them enters the run. Attach order
        is the order the first episodes take engine sequence numbers in.
        """
        if node_id in self._is_down:
            raise ValueError(f"node {node_id!r} already attached")
        self._is_down[node_id] = False
        self._episode_counts[node_id] = 0
        self._permanent[node_id] = False
        self._stream_events[node_id] = None
        if episodes is None:
            return
        self._episode_streams[node_id] = iter(episodes)
        self._schedule_next(node_id)

    # -- injected failures ---------------------------------------------------------

    def schedule_permanent_failure(self, node_id: NodeId, at_time: float) -> None:
        """Arm a permanent loss of ``node_id`` at ``at_time``.

        At that instant the node goes (or stays) down forever: its episode
        stream is dropped, any pending recovery is cancelled, and
        ``PermanentFailure`` is published. A second permanent failure for the
        same node is a silent no-op at fire time.
        """
        self._require_node(node_id)
        handle = self._sim.schedule_at(
            at_time,
            lambda: self._begin_permanent(node_id),
            label=f"permafail:{node_id}",
        )
        self._injected_events.append(handle)

    def schedule_outage(
        self, node_ids: Sequence[NodeId], start: float, duration: float
    ) -> None:
        """Arm a correlated outage: every node goes down at ``start`` for
        ``duration`` seconds.

        Nodes already down at ``start`` simply stay down (their own episode
        governs the return); nodes taken down by the outage come back at
        ``start + duration`` unless permanently failed in between.
        """
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        for node_id in node_ids:
            self._require_node(node_id)
        episode = DowntimeEpisode(
            start=start, end=start + duration, interruption_count=1
        )
        for node_id in node_ids:
            handle = self._sim.schedule_at(
                start,
                lambda n=node_id: self._begin_injected(n, episode),
                label=f"outage:{node_id}",
            )
            self._injected_events.append(handle)

    def set_recovery_stretch(self, node_id: NodeId, stretch: float) -> None:
        """Stretch remaining downtime of episodes beginning from now on.

        Chaos delayed-recovery hook: while set, any episode of ``node_id``
        that *begins* lasts ``stretch`` times its remaining sampled
        duration — return times drift past the predictor's fitted
        distribution. Episodes already in progress are unaffected.
        """
        self._require_node(node_id)
        if stretch < 1.0:
            raise ValueError(f"stretch must be >= 1, got {stretch}")
        self._recovery_stretch[node_id] = stretch

    def clear_recovery_stretch(self, node_id: NodeId) -> None:
        """Remove a delayed-recovery stretch (idempotent)."""
        self._require_node(node_id)
        self._recovery_stretch.pop(node_id, None)

    def _begin_injected(self, node_id: NodeId, episode: DowntimeEpisode) -> None:
        if self._stopped or self._permanent[node_id] or self._is_down[node_id]:
            return
        # An armed stream begin-event would double-publish NodeDown while the
        # outage holds the node; _begin_episode guards on is_down and folds
        # such overlaps away, so the stream stays consistent.
        self._begin_episode(node_id, episode, from_stream=False)

    def _begin_permanent(self, node_id: NodeId) -> None:
        if self._stopped or self._permanent[node_id]:
            return
        self._permanent[node_id] = True
        self._episode_streams.pop(node_id, None)
        event = self._stream_events.get(node_id)
        if event is not None:
            event.cancel()
            self._stream_events[node_id] = None
        now = self._sim.now
        # Destruction before detection: the permanent chain (disk wipe,
        # durability accounting) runs first so the down chain — trackers,
        # heartbeats, oracle detection — sees the post-wipe state.
        self._bus.publish(PermanentFailure(time=now, node_id=node_id))
        if not self._is_down[node_id]:
            self._is_down[node_id] = True
            self._episode_counts[node_id] += 1
            self._bus.publish(NodeDown(time=now, node_id=node_id))

    # -- lifecycle --------------------------------------------------------------------

    def start(self) -> None:
        """No-op: attachment arms the streams (Service protocol)."""

    def stop(self) -> None:
        """Cancel every armed event; the injector goes permanently quiet.

        Use when abandoning a cluster mid-run so stray transitions cannot
        fire into torn-down subscribers.
        """
        self._stopped = True
        for node_id, event in self._stream_events.items():
            if event is not None:
                event.cancel()
                self._stream_events[node_id] = None
        for event in self._injected_events:
            event.cancel()
        self._injected_events.clear()
        self._episode_streams.clear()

    @property
    def stopped(self) -> bool:
        return self._stopped

    # -- queries --------------------------------------------------------------------

    @property
    def node_ids(self) -> List[NodeId]:
        return sorted(self._is_down)

    def is_down(self, node_id: NodeId) -> bool:
        """Current state of a node."""
        return self._is_down[node_id]

    def is_permanently_failed(self, node_id: NodeId) -> bool:
        """Whether the node is gone for good (disk and all)."""
        return self._permanent[node_id]

    def episode_count(self, node_id: NodeId) -> int:
        """Downtime episodes this node has *started* so far."""
        return self._episode_counts[node_id]

    def _require_node(self, node_id: NodeId) -> None:
        if node_id not in self._is_down:
            raise KeyError(f"unknown node {node_id!r}")

    # -- internals --------------------------------------------------------------------

    def _schedule_next(self, node_id: NodeId) -> None:
        stream = self._episode_streams.get(node_id)
        if stream is None:
            return
        episode = next(stream, None)
        if episode is None:
            self._stream_events[node_id] = None
            return
        start = max(episode.start, self._sim.now)
        self._stream_events[node_id] = self._sim.schedule_at(
            start, lambda: self._begin_episode(node_id, episode), label=f"down:{node_id}"
        )

    def _begin_episode(
        self, node_id: NodeId, episode: Episode, from_stream: bool = True
    ) -> None:
        if self._stopped or self._permanent[node_id]:
            return
        if self._is_down[node_id]:
            # Overlap with an injected outage: fold this episode away and
            # keep the stream advancing (its own episodes never overlap).
            if from_stream:
                self._schedule_next(node_id)
            return
        self._is_down[node_id] = True
        self._episode_counts[node_id] += 1
        now = self._sim.now
        self._bus.publish(NodeDown(time=now, node_id=node_id))
        stretch = self._recovery_stretch.get(node_id)
        if type(episode) is OpenEpisode and not episode.extend(
            now if stretch is None else math.inf
        ):
            # The period outlasts now: queue the return at a lower bound
            # on its end, and fold on only when the clock reaches it.
            handle = self._sim.schedule_lazy(
                episode.bound,
                lambda: self._resolve_end(node_id, episode, from_stream),
                label=f"up:{node_id}",
            )
        else:
            end = max(episode.end, now)
            if stretch is not None:
                # Delayed-recovery chaos: the remaining downtime of an episode
                # beginning inside the window lasts ``stretch`` times as long.
                # Guarded so the untouched path stays float-identical.
                end = now + (end - now) * stretch
            handle = self._sim.schedule_at(
                end,
                lambda: self._end_episode(node_id, from_stream),
                label=f"up:{node_id}",
            )
        if from_stream:
            self._stream_events[node_id] = handle
        else:
            self._injected_events.append(handle)

    def _resolve_end(
        self, node_id: NodeId, episode: OpenEpisode, from_stream: bool
    ) -> Resolution:
        """Fold an open episode until its bound at least doubles; once it
        closes, its end and the return to fire then."""
        if episode.extend(2.0 * episode.bound):
            return episode.end, lambda: self._end_episode(node_id, from_stream)
        return episode.bound, None

    def _end_episode(self, node_id: NodeId, from_stream: bool = True) -> None:
        if self._stopped or self._permanent[node_id]:
            return
        if not self._is_down[node_id]:
            # Idempotent up transition: a concurrent end (overlapping
            # injected outage, or a chaos cycle racing the stream) already
            # brought the node back — don't double-publish or double-count.
            if from_stream:
                self._schedule_next(node_id)
            return
        self._is_down[node_id] = False
        self._bus.publish(NodeUp(time=self._sim.now, node_id=node_id))
        if from_stream:
            self._schedule_next(node_id)
