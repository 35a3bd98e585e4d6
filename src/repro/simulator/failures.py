"""Failure injection: drives per-node up/down state during a simulation.

Each attached node is driven by one episode stream: its
:class:`~repro.availability.process.InterruptionProcess` sampled lazily,
an episode prefix materialised up to a horizon before the run
(:mod:`repro.availability.pregen`, with ``ClusterConfig.pregen_horizon``;
within the horizon it fires the lazy stream's transitions), or a
recorded :class:`~repro.availability.traces.AvailabilityTrace` replayed
as is. A lazily sampled busy period that is still open when it
begins (:class:`~repro.availability.process.OpenEpisode`) queues its
return with :meth:`~repro.simulator.engine.Simulator.schedule_lazy`, so
its fold runs only as far as the clock gets.

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
from typing import Dict, Iterator, List, Optional, Sequence

from repro.availability.generator import HostAvailability
from repro.availability.pregen import host_stream
from repro.availability.process import DowntimeEpisode, Episode, OpenEpisode
from repro.availability.traces import AvailabilityTrace
from repro.core.ids import NodeId
from repro.simulator.engine import EventHandle, Resolution, Simulator
from repro.simulator.events import (
    EventBus,
    NodeDown,
    NodeUp,
    PermanentFailure,
)
from repro.util.rng import RandomSource

class FailureInjector:
    """Schedules downtime episodes and publishes transitions on the bus."""

    def __init__(
        self, sim: Simulator, rng: RandomSource, bus: Optional[EventBus] = None
    ) -> None:
        self._sim = sim
        self._rng = rng
        self._bus = bus if bus is not None else EventBus()
        self._episode_streams: Dict[NodeId, Iterator[Episode]] = {}
        self._is_down: Dict[NodeId, bool] = {}
        self._episode_counts: Dict[NodeId, int] = {}
        self._downtime_totals: Dict[NodeId, float] = {}
        self._permanent: Dict[NodeId, bool] = {}
        #: When each currently-down node went down (downtime accounting).
        self._down_since: Dict[NodeId, Optional[float]] = {}
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

    def attach_host(
        self,
        host: HostAvailability,
        burn_in: float = 0.0,
        node_id: Optional[NodeId] = None,
        episodes: Optional[Sequence[DowntimeEpisode]] = None,
    ) -> None:
        """Drive a node from its availability description.

        Dedicated hosts are registered but never interrupted.

        ``burn_in`` shifts the interruption process ``burn_in`` seconds into
        its own past, so the simulation window starts in (approximately)
        stationary state — like cutting a random window out of a long trace:
        a host may already be down at t=0, with the correct residual
        downtime. A burn-in of several population MTBIs is enough; 0 keeps
        the legacy fresh start. The stream leaves long busy periods open
        (:meth:`~repro.availability.process.InterruptionProcess.lazy_episodes`),
        so a period that outlasts the burn-in, as a rho >= 1 host's does,
        folds only as far as the run reaches.

        ``node_id`` is the dense int id the injector keys its runtime
        state (and published events) by; it defaults to ``host.host_id``
        so standalone components keep routing by name. The RNG substream
        is *always* keyed by the host's name, so failure realisations are
        invariant under the identity representation.

        ``episodes`` injects a materialised episode prefix
        (:func:`~repro.availability.pregen.pregenerate_prefixes`) instead
        of sampling one here: no per-host RNG substream is derived and no
        generator is built, so attach becomes pure bookkeeping. The prefix
        must already include any burn-in shift, which is why combining
        ``episodes`` with a non-zero ``burn_in`` is rejected. Pass None
        (not an empty sequence) for dedicated hosts. A prefix ends at its
        horizon; a busy period still open there is its last episode,
        closed at a bound past the horizon and at or before its true end
        (:func:`~repro.availability.process.cut_at_horizon`). Past the
        horizon the node's transitions are therefore no longer its
        stream's, which ``Cluster.run_until_job_done`` turns into an error.
        """
        if node_id is None:
            node_id = host.host_id  # type: ignore[assignment]
        if node_id in self._is_down:
            raise ValueError(f"node {node_id!r} already attached")
        if burn_in < 0:
            raise ValueError(f"burn_in must be non-negative, got {burn_in}")
        if episodes is not None and burn_in > 0.0:
            raise ValueError(
                "episodes is an already-materialised prefix; it cannot be "
                "combined with a non-zero burn_in"
            )
        self._register(node_id)
        if episodes is not None:
            stream: Optional[Iterator[Episode]] = iter(episodes)
        else:
            stream = host_stream(host, self._rng, burn_in)
        if stream is None:
            return
        self._episode_streams[node_id] = stream
        self._schedule_next(node_id)

    def attach_trace(
        self, trace: AvailabilityTrace, node_id: Optional[NodeId] = None
    ) -> None:
        """Drive a node by replaying a materialised trace.

        ``node_id`` defaults to the trace's host name (standalone use);
        ``build_cluster`` passes the interned int id.
        """
        if node_id is None:
            node_id = trace.host_id  # type: ignore[assignment]
        if node_id in self._is_down:
            raise ValueError(f"node {node_id!r} already attached")
        self._register(node_id)
        episodes = (
            DowntimeEpisode(start=start, end=end, interruption_count=1)
            for start, end in trace.down_windows
        )
        self._episode_streams[node_id] = episodes
        self._schedule_next(node_id)

    def _register(self, node_id: NodeId) -> None:
        self._is_down[node_id] = False
        self._episode_counts[node_id] = 0
        self._downtime_totals[node_id] = 0.0
        self._permanent[node_id] = False
        self._down_since[node_id] = None
        self._stream_events[node_id] = None

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
            self._down_since[node_id] = now
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

    def downtime_total(self, node_id: NodeId) -> float:
        """Seconds of completed downtime so far."""
        return self._downtime_totals[node_id]

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
        self._down_since[node_id] = now
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
        now = self._sim.now
        down_since = self._down_since[node_id]
        self._down_since[node_id] = None
        # Account the downtime actually served: a stretched or clipped
        # episode's wall window, not the sampled episode length.
        if down_since is not None:  # begin always records it
            self._downtime_totals[node_id] += now - down_since
        self._bus.publish(NodeUp(time=now, node_id=node_id))
        if from_stream:
            self._schedule_next(node_id)
