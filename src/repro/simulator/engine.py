"""The discrete-event engine.

A minimal, fast event loop: events are ``(time, sequence, handle)`` triples
on one binary heap (``heapq``). Tuple comparison gives the total
``(time, seq)`` order; the sequence number breaks time ties in scheduling
order (and is unique, so handles are never compared), which makes every
simulation a deterministic function of its root seed — a property the
reproducibility tests assert end-to-end.

Cancellation is lazy (a cancelled handle stays queued and is skipped when
popped), which keeps both ``schedule`` and ``cancel`` cheap. Long runs with
recurring reschedule/cancel cycles (heartbeat watchdogs, network sweeps)
would otherwise accumulate dead entries without bound, so the heap is
compacted — cancelled entries dropped — whenever they outnumber the live
ones (amortised O(1) per cancellation; :attr:`Simulator.pending_events`
stays within a constant factor of the live event count).

A caller that knows an event's place in the order long before it knows
whether the event will be needed can *reserve* its sequence number with
:meth:`Simulator.reserve` and queue it later with
:meth:`Simulator.schedule_reserved`. The event then pops exactly where it
would have if it had been scheduled at reservation time, so a
speculative event that is usually revoked never enters the heap (the
heartbeat watchdogs use this; see DESIGN.md §10).

An event whose time is costly to compute but easy to bound from below
is queued with :meth:`Simulator.schedule_lazy`: it takes its sequence
number at once and pops at ``(bound, seq)``, where the engine asks it
for its exact time and re-queues it under the same number. Computing
the time is not an event: it fires nothing and leaves the clock alone.
Recoveries of long availability busy periods use this (DESIGN.md §11).

A run that must end on a condition pays nothing per event for it: the
code that makes the condition true calls :meth:`Simulator.halt`, and the
loop tests a flag (DESIGN.md §10, "Run loop"). An action goes through
:meth:`Simulator.schedule_at` (``schedule`` delegates to it), the entry
layer attribution wraps, and is a function, lambda or bound method of a
``repro`` module: a ``functools.partial`` carries no module to charge.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable, List, Optional, Tuple

#: Never compact below this heap size: tiny heaps don't need the churn.
_COMPACT_MIN_SIZE = 64

#: What a lazy event's resolver returns: its exact time and the action to
#: fire then, or a later lower bound and None.
Resolution = Tuple[float, Optional[Callable[[], None]]]


def _bad_time(time: float, now: float) -> ValueError:
    """The error for an event time outside ``[now, inf)``."""
    if time < now:
        return ValueError(f"cannot schedule at {time} before now ({now})")
    return ValueError(f"event time must be finite, got {time}")


class EventHandle:
    """A scheduled event; call :meth:`cancel` to revoke it."""

    __slots__ = ("time", "action", "label", "_cancelled", "_sim", "resolve")

    #: Set on lazy events only (:meth:`Simulator.schedule_lazy`): an
    #: unresolved lazy event is the one live handle whose action is None.
    #: Resolving or cancelling it sets None.
    resolve: Optional[Callable[[], Resolution]]

    def __init__(
        self,
        time: float,
        action: Optional[Callable[[], None]],
        label: str,
        sim: Optional["Simulator"] = None,
    ) -> None:
        self.time = time
        self.action: Optional[Callable[[], None]] = action
        self.label = label
        self._cancelled = False
        #: Owning simulator, told about cancellations for heap hygiene.
        self._sim = sim

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def cancel(self) -> None:
        """Revoke the event; a no-op if it already fired.

        A cancelled handle keeps no reference out: it drops its action
        (or, unresolved lazy, its resolver) and its simulator, so a
        queued dead entry never closes a cycle through the heap.
        """
        if self._cancelled:
            return
        self._cancelled = True
        self.action = None  # release the closure promptly
        self.resolve = None
        sim = self._sim
        if sim is not None:
            self._sim = None
            sim._note_cancelled()

    def __repr__(self) -> str:
        state = "cancelled" if self._cancelled else "pending"
        return f"EventHandle(t={self.time:g}, label={self.label!r}, {state})"


class Simulator:
    """Deterministic discrete-event simulator."""

    def __init__(self, start_time: float = 0.0) -> None:
        #: Current simulation time (seconds). A plain attribute, read on
        #: every event by every layer; only the engine advances it.
        self.now = float(start_time)
        #: The event heap. Compaction filters it in place, so the local
        #: references the run loop holds stay valid.
        self._heap: List[Tuple[float, int, EventHandle]] = []
        self._sequence = itertools.count()
        self._events_fired = 0
        self._running = False
        self._halted = False
        self._cancelled_in_heap = 0

    @property
    def events_fired(self) -> int:
        """Number of events executed so far."""
        return self._events_fired

    @property
    def pending_events(self) -> int:
        """Events still queued (including lazily-cancelled ones)."""
        return len(self._heap)

    @property
    def cancelled_pending(self) -> int:
        """Lazily-cancelled entries currently occupying the heap."""
        return self._cancelled_in_heap

    def schedule(
        self,
        delay: float,
        action: Callable[[], None],
        label: str = "",
    ) -> EventHandle:
        """Schedule ``action`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self.now + delay, action, label)

    def schedule_at(
        self,
        time: float,
        action: Callable[[], None],
        label: str = "",
    ) -> EventHandle:
        """Schedule ``action`` at an absolute simulation time."""
        if not self.now <= time < math.inf:
            raise _bad_time(time, self.now)
        handle = EventHandle(time, action, label, self)
        heapq.heappush(self._heap, (time, next(self._sequence), handle))
        return handle

    def reserve(self) -> int:
        """Take the next sequence number without queueing anything.

        Hand it to :meth:`schedule_reserved` later to queue an event at
        the position it would hold had it been scheduled now. An unused
        reservation leaves a gap in the sequence and nothing else.
        """
        return next(self._sequence)

    def schedule_reserved(
        self,
        time: float,
        seq: int,
        action: Callable[[], None],
        label: str = "",
    ) -> EventHandle:
        """Queue ``action`` at ``time`` under a :meth:`reserve`-d number.

        The caller owns the ordering claim: each reserved number is used
        at most once, and no event ordered after ``(time, seq)`` may have
        fired yet. The time checks are :meth:`schedule_at`'s.
        """
        if not self.now <= time < math.inf:
            raise _bad_time(time, self.now)
        handle = EventHandle(time, action, label, self)
        heapq.heappush(self._heap, (time, seq, handle))
        return handle

    def schedule_lazy(
        self,
        bound: float,
        resolve: Callable[[], Resolution],
        label: str = "",
    ) -> EventHandle:
        """Queue an event known only by a lower bound on its time.

        The event takes its sequence number now, as :meth:`schedule_at`
        would, and pops at ``(bound, seq)``. The engine then calls
        ``resolve()``, which returns ``(time, action)`` once it knows the
        exact time, or ``(later_bound, None)``; either way the event is
        re-queued under its own number. Because ``bound <= time``, it
        fires exactly where a :meth:`schedule_at` of ``time`` would have,
        ties included. A resolution fires nothing and does not move the
        clock. An exact time before the bound raises, and so does a later
        bound that does not grow or a time that is not finite.
        """
        if not self.now <= bound < math.inf:
            raise _bad_time(bound, self.now)
        handle = EventHandle(bound, None, label, self)
        handle.resolve = resolve
        heapq.heappush(self._heap, (bound, next(self._sequence), handle))
        return handle

    def _resolve(self, bound: float, seq: int, handle: EventHandle) -> None:
        """Resolve a popped lazy event and re-queue it under ``seq``."""
        resolve = handle.resolve
        assert resolve is not None
        time, action = resolve()
        ordered = bound < time if action is None else bound <= time
        if not (ordered and time < math.inf):
            raise ValueError(
                f"lazy event {handle.label!r} with bound {bound} resolved to {time}: "
                "an exact time must be finite and not before the bound, "
                "a later bound finite and larger"
            )
        if action is not None:
            handle.action = action
            handle.resolve = None
        handle.time = time
        heapq.heappush(self._heap, (time, seq, handle))

    def halt(self) -> None:
        """End the current :meth:`run` once the calling event returns.

        Every :meth:`run` starts unhalted, so outside one this does
        nothing; :meth:`step` ignores it.
        """
        self._halted = True

    def step(self) -> bool:
        """Execute the next event. Returns False when the heap is empty.

        Lazy events reaching the head on the way are resolved first.
        """
        heap = self._heap
        while heap:
            time, seq, handle = heapq.heappop(heap)
            if handle._cancelled:
                self._cancelled_in_heap -= 1
                continue
            action = handle.action
            if action is None:
                self._resolve(time, seq, handle)
                continue
            self.now = time
            handle._cancelled = True  # fired; also drop the closure ref
            handle.action = None
            self._events_fired += 1
            action()
            return True
        return False

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Run events until the heap drains, ``until`` passes, the budget
        ends, or an event calls :meth:`halt`.

        Returns the number of events executed by this call. Events scheduled
        exactly at ``until`` still run; the clock never advances past the
        last executed event. A halt ends the run before the next event
        (and before the next lazy resolution). Resolutions are not events:
        they count neither here nor in :attr:`events_fired`.
        """
        if self._running:
            raise RuntimeError("simulator is already running (re-entrant run())")
        self._running = True
        self._halted = False
        limit = math.inf if until is None else until
        budget = math.inf if max_events is None else max_events
        executed = 0
        heap = self._heap
        heappop = heapq.heappop
        try:
            while heap and executed < budget and not self._halted:
                time, seq, handle = heap[0]
                if handle._cancelled:
                    heappop(heap)
                    self._cancelled_in_heap -= 1
                    continue
                if time > limit:
                    break
                heappop(heap)
                action = handle.action
                if action is None:
                    self._resolve(time, seq, handle)
                    continue
                self.now = time
                handle._cancelled = True  # fired; also drop the closure ref
                handle.action = None
                self._events_fired += 1
                action()
                executed += 1
        finally:
            self._running = False
        return executed

    def peek_next_time(self) -> Optional[float]:
        """Time of the next live event, or None when the heap is drained.

        Never earlier than :attr:`now` — the invariant auditor checks this;
        a violation would mean heap ordering itself broke. Cancelled heads
        are discarded on the way, and lazy heads resolved, so the time
        returned is exact.
        """
        heap = self._heap
        while heap:
            time, seq, handle = heap[0]
            if handle._cancelled:
                heapq.heappop(heap)
                self._cancelled_in_heap -= 1
            elif handle.action is None:
                heapq.heappop(heap)
                self._resolve(time, seq, handle)
            else:
                return time
        return None

    def _note_cancelled(self) -> None:
        """A pending handle was cancelled; compact when the dead outnumber
        the living (and the heap is big enough to care)."""
        self._cancelled_in_heap += 1
        heap = self._heap
        if len(heap) >= _COMPACT_MIN_SIZE and self._cancelled_in_heap * 2 > len(heap):
            heap[:] = [entry for entry in heap if not entry[2]._cancelled]
            heapq.heapify(heap)
            self._cancelled_in_heap = 0

    def __repr__(self) -> str:
        return f"Simulator(now={self.now:g}, pending={len(self._heap)})"
