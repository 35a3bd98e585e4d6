"""Typed, priority-phased event bus: the cluster's nervous system.

Every availability transition in the simulated deployment fans out to many
subsystems — accounting, storage, compute, network, failure detection,
scheduling — and the *order* of those reactions is load-bearing (a
node's attempts must be dead before detection requeues its work; a wiped
disk must be accounted before the scheduler abandons tasks). The seed
cluster enforced that order implicitly, through the subscription order of
~15 callbacks in ``build_cluster``; this module makes the contract
explicit and typed.

Dispatch contract
-----------------
* Events are frozen dataclasses (:class:`NodeDown`, :class:`NodeUp`,
  :class:`PermanentFailure`, :class:`NodeDeclaredDead`,
  :class:`NodeReturned`, :class:`NodePurged`, :class:`BlockLost`,
  :class:`ReplicaAdded`, :class:`TaskStateChange`). Matching is by exact
  type — no subclass dispatch, so adding an event type never changes the
  delivery set of existing subscriptions.
* Each subscription names a :class:`Phase`. On ``publish`` the handlers of
  the event's type run grouped by phase, ``ACCOUNTING`` through
  ``SCHEDULING``; within a phase, in subscription order. This replaces
  "subscription order is the contract" with "phase order is the contract".
* Dispatch is synchronous and depth-first: a handler that publishes a
  nested event (a wipe publishing :class:`BlockLost`) has the nested
  dispatch complete before the outer dispatch resumes — exactly the
  semantics of the direct callback chains it replaces.
* Subscriptions may be *keyed* by the event's routing key (a node id or
  block id). A keyed handler only runs for events carrying that key, and
  delivery cost is O(handlers that care), not O(nodes) — per-node agents
  (TaskTrackers) subscribe keyed so a 10k-node cluster pays two
  dict lookups per transition, not 10k predicate calls.
* Taps (:meth:`EventBus.add_tap`) observe every published event once, at
  publish entry, before any handler runs — so a trace reads in causal
  (publish) order. The :class:`~repro.simulator.trace.TraceRecorder`
  service is a tap.

Determinism: handler invocation order is a pure function of (phase,
subscription sequence), both of which are fixed at wiring time, so a bus
dispatch is as deterministic as the callback chains it replaced — the
golden-seed tests assert this end-to-end.
"""

from __future__ import annotations

import bisect
import enum
from dataclasses import dataclass, fields
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Type, TypeVar, Union

from repro.core.ids import NodeId

#: Keyed-subscription match value: a dense node id (int) on node events,
#: a block/task id string elsewhere.
RoutingKey = Union[int, str]


class Phase(enum.IntEnum):
    """Dispatch phases, in execution order.

    ACCOUNTING  raw bookkeeping of the physical transition (metrics,
                downtime intervals) — must see the pre-reaction state.
    STORAGE     storage-layer state: disk wipes and replica-map
                maintenance (re-replication queueing, purges). A plain
                NodeDown / NodeUp touches no disk here.
    COMPUTE     execution-layer state: TaskTrackers killing or accounting
                the attempts that lived on the transitioning node.
    NETWORK     link state: wiped nodes' transfers torn down, partitions
                and capacity scales re-rating the flows in flight.
    DETECTION   belief updates: heartbeat bookkeeping or oracle marking,
                which may publish NodeDeclaredDead / NodeReturned.
    SCHEDULING  reactions that hand out new work (requeues, assignment
                pokes) — always last, so they observe a settled cluster.
    """

    ACCOUNTING = 0
    STORAGE = 1
    COMPUTE = 2
    NETWORK = 3
    DETECTION = 4
    SCHEDULING = 5


@dataclass(frozen=True, slots=True)
class Event:
    """Base class for everything the bus carries."""

    #: Simulation time at which the event occurred.
    time: float

    @property
    def routing_key(self) -> Optional[RoutingKey]:
        """Key used to match keyed subscriptions (None = unkeyed only)."""
        return None

    def payload(self) -> Dict[str, object]:
        """Flat field view for structured tracing."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True, slots=True)
class NodeEvent(Event):
    """An event about one node; routed by its dense int node id.

    ``node_id`` is the cluster-interned :data:`~repro.core.ids.NodeId`;
    the name lives in the cluster's ``NodeIds`` table and is re-attached
    only at the reporting boundary. (Standalone components constructed
    outside ``build_cluster`` may route by any hashable id — the bus only
    ever hashes and compares keys.)"""

    node_id: NodeId

    @property
    def routing_key(self) -> Optional[RoutingKey]:
        return self.node_id


@dataclass(frozen=True, slots=True)
class NodeDown(NodeEvent):
    """Physical interruption began (the injector's ground truth)."""


@dataclass(frozen=True, slots=True)
class NodeUp(NodeEvent):
    """Physical recovery: the node is running again."""


@dataclass(frozen=True, slots=True)
class PermanentFailure(NodeEvent):
    """The node is gone for good — disk and all. Published *before* the
    accompanying :class:`NodeDown` (destruction precedes detection)."""


@dataclass(frozen=True, slots=True)
class NodeDeclaredDead(NodeEvent):
    """Failure *detection* fired: the masters now believe the node dead
    (heartbeat timeout, or instantly under oracle detection).

    Dispatch-root: published from inside detector handlers; this event
    starts a fresh phase cycle (belief change, not physical change), so
    its subscribers legitimately run in phases earlier than the
    publishing detector's phase."""


@dataclass(frozen=True, slots=True)
class NodeReturned(NodeEvent):
    """The masters believe a previously-dead node is back.

    Dispatch-root: like :class:`NodeDeclaredDead`, this belief-change
    event restarts the phase cycle when published from a detector."""


@dataclass(frozen=True, slots=True)
class NodePurged(NodeEvent):
    """A permanently failed node was erased from the location map; it will
    never beat, serve, or store again."""


@dataclass(frozen=True, slots=True)
class BlockLost(Event):
    """Zero physical replicas of the block survive anywhere."""

    block_id: str

    @property
    def routing_key(self) -> Optional[RoutingKey]:
        return self.block_id


@dataclass(frozen=True, slots=True)
class ReplicaAdded(Event):
    """A re-replication copy landed: ``node_id`` now holds ``block_id``.

    Dispatch-root: re-replication completes inside the STORAGE-phase
    monitor, and accounting subscribers observe the completed copy as a
    fresh occurrence rather than a same-cycle reaction."""

    block_id: str
    node_id: NodeId

    @property
    def routing_key(self) -> Optional[RoutingKey]:
        return self.block_id


@dataclass(frozen=True, slots=True)
class TaskStateChange(Event):
    """A map task changed state (observability; no cluster logic reacts)."""

    task_id: str
    state: str
    node_id: Optional[NodeId] = None

    @property
    def routing_key(self) -> Optional[RoutingKey]:
        return self.task_id


@dataclass(frozen=True, slots=True)
class NodeDegraded(NodeEvent):
    """The node entered a gray state: alive and beating, but its links
    and/or task execution run at a fraction of nominal speed."""

    link_factor: float = 1.0
    exec_factor: float = 1.0


@dataclass(frozen=True, slots=True)
class NodeRestored(NodeEvent):
    """A previously gray node runs at nominal speed again."""


@dataclass(frozen=True, slots=True)
class LinkDegraded(Event):
    """A directed link entered a degraded state: it carries traffic at
    ``capacity_factor`` of nominal and corrupts ``corruption_rate`` of
    what it forwards. ``link`` is a ``"tier:id"`` spec in the campaign's
    (human) vocabulary — host tiers name hosts, fabric tiers carry rack
    or pod indices — parsed by
    :func:`repro.simulator.topology.parse_link_spec`. The cluster's link
    mitigation service decides how much of the degradation transfers
    actually feel."""

    link: str
    capacity_factor: float = 1.0
    corruption_rate: float = 0.0

    @property
    def routing_key(self) -> Optional[RoutingKey]:
        return self.link


@dataclass(frozen=True, slots=True)
class LinkRestored(Event):
    """A previously degraded link runs at nominal again. Carries the
    same factors as the opening :class:`LinkDegraded` so the mitigation
    service can release exactly the effect it applied, even when
    degradations overlap on one link."""

    link: str
    capacity_factor: float = 1.0
    corruption_rate: float = 0.0

    @property
    def routing_key(self) -> Optional[RoutingKey]:
        return self.link


@dataclass(frozen=True, slots=True)
class PartitionStarted(Event):
    """A network partition began: transfers crossing the boundary between
    ``members`` and the rest of the cluster stall until healed. When
    ``heartbeats_blocked`` is true, detection loses heartbeats from the
    members too; otherwise belief and storage see different truths."""

    partition_id: str
    members: Tuple[NodeId, ...]
    heartbeats_blocked: bool = False


@dataclass(frozen=True, slots=True)
class PartitionHealed(Event):
    """The partition identified by ``partition_id`` healed; stalled
    transfers resume from their drained progress."""

    partition_id: str
    members: Tuple[NodeId, ...]


@dataclass(frozen=True, slots=True)
class ChaosScenarioStarted(Event):
    """A chaos scenario became active (observability; carries the full
    declarative spec so a recorded trace replays the campaign exactly)."""

    kind: str
    index: int
    #: Host *names* (the spec's vocabulary), not int ids — the event
    #: carries the declarative campaign for replay, so it speaks the
    #: same language the spec does.
    targets: Tuple[str, ...]
    spec: str


@dataclass(frozen=True, slots=True)
class ChaosScenarioEnded(Event):
    """A chaos scenario's window closed (observability)."""

    kind: str
    index: int


E = TypeVar("E", bound=Event)
Handler = Callable[[E], None]
#: A tap sees (event, phases that have at least one handler registered).
Tap = Callable[[Event, Tuple[Phase, ...]], None]
#: A dispatch interceptor wraps each handler invocation: it receives the
#: handler, the phase it was registered at, and the event, and must call
#: ``handler(event)`` itself (see ``EventBus.set_dispatch_interceptor``).
DispatchInterceptor = Callable[[Callable[[Event], None], Phase, Event], None]

#: (phase, sequence, handler) — sequence is global, so sorting by this
#: tuple yields phase-major, subscription-order-minor dispatch.
_Entry = Tuple[int, int, Callable[[Event], None]]
#: One type's dispatch orders: the unkeyed entries, and per routing key
#: with keyed subscribers, the merged order (see ``EventBus._orders``).
_Orders = Tuple[Tuple[_Entry, ...], Dict[RoutingKey, Tuple[_Entry, ...]]]


class EventBus:
    """Synchronous, phase-ordered, typed publish/subscribe hub."""

    def __init__(self) -> None:
        #: type -> routing key (None = unkeyed) -> entries in seq order.
        self._subs: Dict[Type[Event], Dict[Optional[RoutingKey], List[_Entry]]] = {}
        self._taps: List[Tap] = []
        self._seq = 0
        self._published = 0
        self._dispatched = 0
        #: Optional dispatch wrapper (see :meth:`set_dispatch_interceptor`).
        self._interceptor: Optional[DispatchInterceptor] = None
        #: Per-type frozen dispatch orders, rebuilt lazily after any
        #: subscription to the type: the snapshot of the unkeyed entries,
        #: and beside it, per key with keyed subscribers, the snapshot
        #: merged with the key's entries in (phase, seq) order (sorted on
        #: the key's first publish). ``publish`` iterates these tuples
        #: directly, so a dispatch allocates and sorts nothing per event.
        self._orders: Dict[Type[Event], _Orders] = {}
        #: Per-type answer of :meth:`wants`, dropped with the orders by
        #: :meth:`subscribe_many`, and all at once by :meth:`add_tap`.
        self._wants: Dict[Type[Event], bool] = {}

    # -- registration ------------------------------------------------------------

    def subscribe(
        self,
        event_type: Type[E],
        handler: Handler[E],
        phase: Phase,
        key: Optional[RoutingKey] = None,
    ) -> None:
        """Register ``handler`` for events of exactly ``event_type``.

        ``key`` restricts delivery to events whose :attr:`Event.routing_key`
        equals it (used by per-node / per-block agents). Handlers run in
        (phase, subscription) order; see the module docstring. Wiring is
        permanent: a subscriber's handler is its reaction until the
        teardown's :meth:`clear`.
        """
        self.subscribe_many(event_type, phase, ((key, handler),))

    def subscribe_many(
        self,
        event_type: Type[E],
        phase: Phase,
        handlers: Iterable[Tuple[Optional[RoutingKey], Handler[E]]],
    ) -> int:
        """Register ``(key, handler)`` pairs for one type and phase.

        Each pair takes the next global sequence number, so a bulk call
        dispatches exactly as one :meth:`subscribe` per pair in iteration
        order (pinned by ``tests/simulator/test_events.py``). The type is
        validated once, the per-type dict is resolved once, and the common
        case of a fresh or tail-appended key skips ``bisect`` — at 226k
        nodes, cluster bus wiring issues ~6 keyed subscriptions per host
        through this path.

        Returns the number of handlers registered.
        """
        if not (isinstance(event_type, type) and issubclass(event_type, Event)):
            raise TypeError(f"event_type must be an Event subclass, got {event_type!r}")
        by_key = self._subs.setdefault(event_type, {})
        phase_int = int(phase)
        seq = self._seq
        count = 0
        for key, handler in handlers:
            seq += 1
            count += 1
            entry: _Entry = (phase_int, seq, handler)  # type: ignore[arg-type]
            # Keep each list in (phase, seq) order so dispatch never
            # re-sorts the common single-list case. Sequence numbers are
            # unique, so comparisons never reach the (uncomparable) handler.
            entries = by_key.get(key)
            if entries is None:
                by_key[key] = [entry]
            elif entry >= entries[-1]:
                entries.append(entry)
            else:
                bisect.insort(entries, entry)
        self._seq = seq
        # The type's dispatch orders and ``wants`` answer are stale now.
        self._orders.pop(event_type, None)
        self._wants.pop(event_type, None)
        return count

    def add_tap(self, tap: Tap) -> None:
        """Register an observer of *every* published event (tracing)."""
        self._taps.append(tap)
        self._wants.clear()

    def clear(self) -> None:
        """Drop every subscription, tap and cached dispatch order.

        ``Cluster.stop`` calls this once every service has stopped: the
        bus's handlers are bound methods of the services that hold the
        bus, so releasing them lets a dropped cluster be freed by
        reference counting. The counters stay readable; a later publish
        reaches nothing.
        """
        self._subs.clear()
        self._taps.clear()
        self._orders.clear()
        self._wants.clear()

    def set_dispatch_interceptor(self, interceptor: Optional["DispatchInterceptor"]) -> None:
        """Route every handler invocation through ``interceptor``.

        The interceptor is called as ``interceptor(handler, phase, event)``
        and is responsible for invoking ``handler(event)`` itself — that
        lets it bracket the call (push/pop a dispatch-context stack, time
        it, trace it) with nested publishes attributed correctly. Where a
        tap sees each *event* once at publish entry, the interceptor sees
        each *handler invocation* with its dispatch metadata. One
        interceptor at a time; pass ``None`` to restore direct dispatch.
        Two consumers install one: simflow's runtime effect crosscheck and
        the benchmark tracer (``bench/tracing.py``), so the two cannot run
        together (ROADMAP.md, item 5).
        """
        self._interceptor = interceptor

    # -- introspection -----------------------------------------------------------

    def iter_subscriptions(
        self,
    ) -> Iterator[Tuple[Type[Event], Optional[RoutingKey], Phase, Handler[Any]]]:
        """Live ``(event type, key, phase, handler)`` tuples, wiring order.

        It yields the handler *objects*, so callers can reach bound-method
        owners: simflow's effect recorder uses it to find the classes to
        instrument, and the bus-graph crosscheck to compare the live
        wiring with simlint's static graph.
        """
        entries: List[Tuple[int, Type[Event], Optional[RoutingKey], Phase, Handler[Any]]] = []
        for event_type, by_key in self._subs.items():
            for key, subs in by_key.items():
                for phase, seq, handler in subs:
                    entries.append((seq, event_type, key, Phase(phase), handler))
        entries.sort(key=lambda item: item[0])
        for _seq, event_type, key, phase, handler in entries:
            yield event_type, key, phase, handler

    def wants(self, event_type: Type[Event]) -> bool:
        """Whether publishing ``event_type`` would reach anything.

        Lets hot paths skip constructing high-volume events (e.g.
        :class:`TaskStateChange`) when nobody is listening. The answer is
        cached per type until the wiring changes.
        """
        try:
            return self._wants[event_type]
        except KeyError:
            wanted = bool(self._taps) or bool(self._subs.get(event_type))
            self._wants[event_type] = wanted
            return wanted

    @property
    def published_count(self) -> int:
        """Events published so far (including those nobody received)."""
        return self._published

    @property
    def dispatched_count(self) -> int:
        """Handler invocations executed so far."""
        return self._dispatched

    def handler_count(self, event_type: Type[Event]) -> int:
        by_key = self._subs.get(event_type, {})
        return sum(len(entries) for entries in by_key.values())

    # -- dispatch -----------------------------------------------------------------

    def publish(self, event: Event) -> None:
        """Deliver ``event`` to its handlers, phase by phase, synchronously.

        The common case — no keyed match — iterates a frozen per-type
        snapshot of the unkeyed entries, so it allocates nothing. A keyed
        match iterates the key's cached merge of that snapshot with the
        key's entries, sorted once on the key's first publish. Either way
        dispatch runs over a frozen tuple, so a handler that subscribes
        mid-dispatch changes only the *next* publish.
        """
        self._published += 1
        event_type = type(event)
        by_key = self._subs.get(event_type)
        merged: Tuple[_Entry, ...]
        if by_key is None:
            merged = ()
        else:
            orders = self._orders.get(event_type)
            if orders is None:
                orders = self._orders[event_type] = (tuple(by_key.get(None, ())), {})
            merged, keyed_orders = orders
            key = event.routing_key
            if key is not None:
                keyed = by_key.get(key)
                if keyed:
                    order = keyed_orders.get(key)
                    if order is None:
                        order = keyed_orders[key] = tuple(sorted(merged + tuple(keyed)))
                    merged = order
        if self._taps:
            phases = tuple(sorted({Phase(entry[0]) for entry in merged}))
            for tap in self._taps:
                tap(event, phases)
        interceptor = self._interceptor
        if interceptor is None:
            for _phase, _seq, handler in merged:
                self._dispatched += 1
                handler(event)
        else:
            for _phase, _seq, handler in merged:
                self._dispatched += 1
                interceptor(handler, Phase(_phase), event)


__all__ = [
    "Phase",
    "RoutingKey",
    "Event",
    "NodeEvent",
    "NodeDown",
    "NodeUp",
    "PermanentFailure",
    "NodeDeclaredDead",
    "NodeReturned",
    "NodePurged",
    "BlockLost",
    "ReplicaAdded",
    "TaskStateChange",
    "NodeDegraded",
    "NodeRestored",
    "LinkDegraded",
    "LinkRestored",
    "PartitionStarted",
    "PartitionHealed",
    "ChaosScenarioStarted",
    "ChaosScenarioEnded",
    "EventBus",
    "DispatchInterceptor",
]
