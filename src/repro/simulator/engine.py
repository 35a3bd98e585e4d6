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
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable, List, Optional, Tuple

#: Never compact below this heap size: tiny heaps don't need the churn.
_COMPACT_MIN_SIZE = 64


class EventHandle:
    """A scheduled event; call :meth:`cancel` to revoke it."""

    __slots__ = ("time", "action", "label", "_cancelled", "_sim")

    def __init__(
        self,
        time: float,
        action: Callable[[], None],
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
        """Revoke the event; a no-op if it already fired."""
        if self._cancelled:
            return
        self._cancelled = True
        self.action = None  # release the closure promptly
        if self._sim is not None:
            self._sim._note_cancelled()

    def _consume(self) -> None:
        """Mark fired (already popped — no hygiene accounting)."""
        self._cancelled = True
        self.action = None

    def __repr__(self) -> str:
        state = "cancelled" if self._cancelled else "pending"
        return f"EventHandle(t={self.time:g}, label={self.label!r}, {state})"


class Simulator:
    """Deterministic discrete-event simulator."""

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        #: The event heap. Compaction filters it in place, so the local
        #: references the run loop holds stay valid.
        self._heap: List[Tuple[float, int, EventHandle]] = []
        self._sequence = itertools.count()
        self._events_fired = 0
        self._running = False
        self._cancelled_in_heap = 0

    @property
    def now(self) -> float:
        """Current simulation time (seconds)."""
        return self._now

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
        return self.schedule_at(self._now + delay, action, label)

    def schedule_at(
        self,
        time: float,
        action: Callable[[], None],
        label: str = "",
    ) -> EventHandle:
        """Schedule ``action`` at an absolute simulation time."""
        if time < self._now:
            raise ValueError(f"cannot schedule at {time} before now ({self._now})")
        if not math.isfinite(time):
            raise ValueError(f"event time must be finite, got {time}")
        handle = EventHandle(time, action, label, sim=self)
        heapq.heappush(self._heap, (time, next(self._sequence), handle))
        return handle

    def step(self) -> bool:
        """Execute the next event. Returns False when the heap is empty."""
        heap = self._heap
        while heap:
            time, _seq, handle = heapq.heappop(heap)
            if handle.cancelled:
                self._cancelled_in_heap -= 1
                continue
            self._now = time
            action = handle.action
            handle._consume()  # mark fired; also drops the closure ref
            self._events_fired += 1
            assert action is not None
            action()
            return True
        return False

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Run events until the heap drains, ``until`` passes, or the budget ends.

        Returns the number of events executed by this call. Events scheduled
        exactly at ``until`` still run; the clock never advances past the
        last executed event.
        """
        if self._running:
            raise RuntimeError("simulator is already running (re-entrant run())")
        self._running = True
        executed = 0
        heap = self._heap
        try:
            while heap:
                if max_events is not None and executed >= max_events:
                    break
                next_time = self._peek_time()
                if next_time is None:
                    break
                if until is not None and next_time > until:
                    break
                # _peek_time left a live handle at the heap head; pop it
                # directly instead of letting step() rescan for one.
                time, _seq, handle = heapq.heappop(heap)
                self._now = time
                action = handle.action
                handle._consume()  # mark fired; also drops the closure ref
                self._events_fired += 1
                assert action is not None
                action()
                executed += 1
        finally:
            self._running = False
        return executed

    def peek_next_time(self) -> Optional[float]:
        """Time of the next live event, or None when the heap is drained.

        Never earlier than :attr:`now` — the invariant auditor checks this;
        a violation would mean heap ordering itself broke.
        """
        return self._peek_time()

    def _peek_time(self) -> Optional[float]:
        """Time of the next live event, discarding cancelled heads."""
        heap = self._heap
        while heap:
            time, _seq, handle = heap[0]
            if not handle.cancelled:
                return time
            heapq.heappop(heap)
            self._cancelled_in_heap -= 1
        return None

    def _note_cancelled(self) -> None:
        """A pending handle was cancelled; compact when the dead outnumber
        the living (and the heap is big enough to care)."""
        self._cancelled_in_heap += 1
        heap = self._heap
        if len(heap) >= _COMPACT_MIN_SIZE and self._cancelled_in_heap * 2 > len(heap):
            heap[:] = [entry for entry in heap if not entry[2].cancelled]
            heapq.heapify(heap)
            self._cancelled_in_heap = 0

    def __repr__(self) -> str:
        return f"Simulator(now={self._now:g}, pending={len(self._heap)})"
