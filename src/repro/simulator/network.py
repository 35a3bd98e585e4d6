"""Flow-level network model: one link rate per host, one scale stack per link.

The paper's emulation shapes every VM to one link rate between 4 and
32 Mb/s (Section V.A). We model a transfer as a fluid flow from a source
node to a destination node across the directed links its topology path
names: the source's uplink, any fabric trunks, and the destination's
downlink. Concurrent flows share links **max-min fairly** (progressive
filling), and rates are recomputed at every flow arrival, completion or
cancellation — the standard flow-level approximation of TCP fair sharing.

``fair_sharing=False`` selects a cheaper model where each transfer runs at
the smallest capacity on its path with no contention; the large-scale
simulations (Section V.C, up to 16384 nodes) use it for speed, matching the
paper's own simulator granularity.

A link's capacity is its nominal rate — the host link rate on the host
tiers, the topology's trunk capacity on fabric tiers — times the product of
the link's *scale stack*. Gray-node windows, degraded-link mitigation and
any uneven or asymmetric link push onto that stack, and every capacity or
partition change re-rates the flows in flight through one path
(``_rerate``).

The *links* a transfer crosses come from a pluggable
:class:`~repro.simulator.topology.Topology`. Under the default
:class:`~repro.simulator.topology.FlatStar` a path is exactly the classic
(source uplink, destination downlink) pair — allocations are bit-for-bit
what the two-link special case produced. Under a
:class:`~repro.simulator.topology.ClosTopology` cross-rack paths also
cross oversubscribed ToR/aggregation trunks, and progressive filling runs
over every link on the path unchanged.
"""

from __future__ import annotations

import enum
import itertools
import math
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.ids import NodeId
from repro.simulator.engine import EventHandle, Simulator
from repro.simulator.events import (
    NodeDegraded,
    NodeDown,
    NodeRestored,
    PartitionHealed,
    PartitionStarted,
    PermanentFailure,
)
from repro.simulator.topology import HOST_TIERS, FlatStar, LinkKey, Topology
from repro.util.validation import check_positive

#: Remaining-bytes tolerance under which a transfer counts as finished.
#: Both completion paths honor it: the fair-sharing sweep completes any
#: flow whose residue is within it, and the simple model schedules a
#: zero-length completion instead of a timed one.
_DONE_EPSILON = 0.5


def _product(factors: List[float]) -> float:
    """Left-to-right product of a link's scale stack.

    Multiplying in push order keeps the single-factor case bit-identical
    to applying the factor directly (golden trajectories pin this).
    """
    result = factors[0]
    for factor in factors[1:]:
        result *= factor
    return result


class TransferState(enum.Enum):
    """Life cycle of a transfer."""

    ACTIVE = "active"
    COMPLETED = "completed"
    CANCELLED = "cancelled"


class Transfer:
    """One data movement between two nodes."""

    __slots__ = (
        "transfer_id",
        "source",
        "destination",
        "size",
        "remaining",
        "rate",
        "started_at",
        "anchor",
        "finished_at",
        "state",
        "label",
        "on_complete",
        "on_cancel",
        "_event",
        "path",
    )

    def __init__(
        self,
        transfer_id: int,
        source: NodeId,
        destination: NodeId,
        size: float,
        started_at: float,
        label: str,
        on_complete: Callable[["Transfer"], None],
        on_cancel: Optional[Callable[["Transfer"], None]],
        path: Tuple[LinkKey, ...],
    ) -> None:
        self.transfer_id = transfer_id
        self.source = source
        self.destination = destination
        self.size = float(size)
        self.remaining = float(size)
        self.rate = 0.0
        self.started_at = started_at
        #: Time the current constant-rate segment began (simple mode).
        #: Equals ``started_at`` until a stall or re-rate moves it.
        self.anchor = started_at
        self.finished_at: Optional[float] = None
        self.state = TransferState.ACTIVE
        self.label = label
        self.on_complete = on_complete
        self.on_cancel = on_cancel
        self._event: Optional[EventHandle] = None
        # Directed link keys, interned once at transfer start: every rate
        # allocation round indexes capacities/membership by these, so they
        # must not be rebuilt per round (or per allocation).
        self.path = path

    @property
    def transferred(self) -> float:
        """Bytes moved so far."""
        return self.size - self.remaining

    @property
    def duration(self) -> float:
        """Wall time the transfer occupied the network (terminal states only)."""
        if self.finished_at is None:
            raise ValueError("transfer has not finished yet")
        return self.finished_at - self.started_at

    def __repr__(self) -> str:
        return (
            f"Transfer(#{self.transfer_id} {self.source}->{self.destination} "
            f"{self.size:.0f}B, {self.state.value})"
        )


class Network:
    """Shared network connecting every node in the cluster."""

    def __init__(
        self,
        sim: Simulator,
        link_bps: float,
        fair_sharing: bool = True,
        topology: Optional[Topology] = None,
    ) -> None:
        self._sim = sim
        self._link_bps = check_positive("link_bps", link_bps)
        self._fair = fair_sharing
        self._topology: Topology = topology if topology is not None else FlatStar()
        # Insertion-ordered: Transfer hashes by identity, so iterating a
        # plain set would depend on memory addresses and break seed
        # determinism. Every iteration below relies on this ordering.
        self._active: Dict[Transfer, None] = {}
        self._outgoing: Dict[NodeId, int] = defaultdict(int)
        self._ids = itertools.count()
        self._last_update = sim.now
        self._sweep: Optional[EventHandle] = None
        #: Sweeps still queued that ``_sweep`` no longer names: a
        #: reallocation re-entered from a completion callback scheduled
        #: one, and the outer call overwrote it (or a stray firing cleared
        #: ``_sweep`` while the current one was queued). They fire as
        #: redundant sweeps (ROADMAP.md, item 12); kept here only so
        #: :meth:`stop` can cancel them.
        self._strays: List[EventHandle] = []
        #: Active partitions: id -> member set. A transfer crossing any
        #: partition boundary is stalled (rate 0) until the cut heals.
        self._partitions: Dict[str, frozenset] = {}
        #: Capacity scales: link -> stack of multiplicative factors in push
        #: order. Gray-node windows, degraded-link mitigation and uneven
        #: links all push here, so overlapping changes on one link compose.
        self._scales: Dict[LinkKey, List[float]] = {}
        #: Gray-node windows: node -> the link factor of each open window,
        #: oldest first, so each restore releases its own window's factor
        #: even when a mitigation scale shares the node's links.
        self._windows: Dict[NodeId, List[float]] = {}
        #: :meth:`link_capacity` per link, filled by the allocator and
        #: simple-mode thaws, cleared by every capacity change.
        self._capacity_memo: Dict[LinkKey, float] = {}

    # -- configuration ----------------------------------------------------------

    def link_capacity(self, link: LinkKey) -> float:
        """Capacity of a directed link: its nominal rate times its scales.

        Host tiers (``up``/``down``) carry the one host link rate; fabric
        tiers carry the topology's oversubscribed trunk capacity. The
        link's scale stack multiplies in push order.
        """
        if link[0] in HOST_TIERS:
            nominal = self._link_bps
        else:
            nominal = self._topology.fabric_capacity(link)
        stack = self._scales.get(link)
        return nominal * _product(stack) if stack else nominal

    @property
    def topology(self) -> Topology:
        """The link structure transfers route through."""
        return self._topology

    @property
    def fair_sharing(self) -> bool:
        """Whether flows contend max-min fairly (vs the uncontended model)."""
        return self._fair

    @property
    def nominal_rate_bps(self) -> float:
        """Uncontended streaming rate between two hosts: the host link rate."""
        return self._link_bps

    @property
    def active_transfers(self) -> List[Transfer]:
        return list(self._active)

    def outgoing_count(self, node_id: NodeId) -> int:
        """Active transfers currently streaming *from* this node."""
        return self._outgoing.get(node_id, 0)

    # -- transfer control ---------------------------------------------------------

    def start_transfer(
        self,
        source: NodeId,
        destination: NodeId,
        size_bytes: float,
        on_complete: Callable[[Transfer], None],
        on_cancel: Optional[Callable[[Transfer], None]] = None,
        label: str = "",
    ) -> Transfer:
        """Begin moving ``size_bytes`` from ``source`` to ``destination``.

        ``on_complete(transfer)`` fires at completion time; ``on_cancel``
        fires if the transfer is torn down (e.g. an endpoint was
        interrupted). Zero-sized transfers complete via an immediate event.
        """
        if source == destination:
            raise ValueError("source and destination must differ (local reads are free)")
        if size_bytes < 0:
            raise ValueError(f"size must be non-negative, got {size_bytes}")
        transfer = Transfer(
            transfer_id=next(self._ids),
            source=source,
            destination=destination,
            size=size_bytes,
            started_at=self._sim.now,
            label=label,
            on_complete=on_complete,
            on_cancel=on_cancel,
            path=self._topology.path(source, destination),
        )
        self._outgoing[source] += 1
        if self._fair:
            self._advance()
            self._active[transfer] = None
            self._reallocate_and_reschedule()
        else:
            self._active[transfer] = None
            if self._partitions and self._is_stalled(transfer):
                transfer.rate = 0.0  # born into a partition; thawed on heal
            else:
                self._thaw_simple(transfer)
        return transfer

    def cancel(self, transfer: Transfer) -> None:
        """Tear down an active transfer (idempotent for terminal ones)."""
        if transfer.state is not TransferState.ACTIVE:
            return
        if self._fair:
            self._advance()
            self._active.pop(transfer, None)
            self._finalize(transfer, TransferState.CANCELLED)
            self._reallocate_and_reschedule()
        else:
            if transfer._event is not None:
                transfer._event.cancel()
            # Record partial progress for accounting (since the last
            # constant-rate anchor; == started_at unless a stall moved it).
            elapsed = self._sim.now - transfer.anchor
            transfer.remaining = max(transfer.remaining - transfer.rate * elapsed, 0.0)
            self._active.pop(transfer, None)
            self._finalize(transfer, TransferState.CANCELLED)

    def cancel_involving(self, node_id: NodeId) -> List[Transfer]:
        """Cancel every active transfer touching ``node_id`` (node went down)."""
        doomed = [
            t for t in self._active if t.source == node_id or t.destination == node_id
        ]
        for transfer in doomed:
            self.cancel(transfer)
        return doomed

    # -- bus handlers --------------------------------------------------------------

    def handle_node_down(self, event: NodeDown) -> None:
        """Hard-downtime semantics (NETWORK phase): a down node's flows die.

        Only wired when ``access_during_downtime`` is off — under the
        paper's default soft semantics a down host's stored blocks stay
        streamable.
        """
        self.cancel_involving(event.node_id)

    def handle_permanent_failure(self, event: PermanentFailure) -> None:
        """Wiped disk (NETWORK phase): nothing is left to stream, either
        direction — tear down every flow touching the node."""
        self.cancel_involving(event.node_id)

    def handle_partition_started(self, event: PartitionStarted) -> None:
        """Chaos partition (NETWORK phase): cut the members off, so flows
        crossing the boundary stall.

        Stalled transfers keep their progress and resume from it when the
        partition heals; intra-partition and outside flows are untouched
        (and, under fair sharing, inherit the freed capacity).
        """
        if event.partition_id in self._partitions:
            raise ValueError(f"partition {event.partition_id!r} already active")
        self._partitions[event.partition_id] = frozenset(event.members)
        self._rerate()

    def handle_partition_healed(self, event: PartitionHealed) -> None:
        """Partition healed (NETWORK phase): flows it stalled resume from
        their progress."""
        if event.partition_id not in self._partitions:
            raise ValueError(f"partition {event.partition_id!r} is not active")
        del self._partitions[event.partition_id]
        self._rerate()

    def handle_node_degraded(self, event: NodeDegraded) -> None:
        """Gray node (NETWORK phase): open a window that scales both of the
        node's links by ``link_factor`` mid-flight.

        The factor is pushed onto the node's ``up`` and ``down`` scale
        stacks, so overlapping windows compose multiplicatively with each
        other and with any mitigation scale on those links, and each
        :class:`NodeRestored` releases exactly one window.
        """
        link_factor = event.link_factor
        check_positive("link_factor", link_factor)
        node_id = event.node_id
        self._windows.setdefault(node_id, []).append(link_factor)
        links = (("up", node_id), ("down", node_id))
        for link in links:
            self._scales.setdefault(link, []).append(link_factor)
        self._rerate(links)

    def handle_node_restored(self, event: NodeRestored) -> None:
        """Gray node recovered (NETWORK phase): close one window, oldest
        first.

        Restores are matched to windows first-in-first-out: scenario
        windows close in the order they opened whenever durations are
        equal, and the *product* of the remaining stack is correct under
        any interleaving. A restore with no open window is a no-op.
        """
        node_id = event.node_id
        windows = self._windows.get(node_id)
        if not windows:
            return
        factor = windows.pop(0)
        if not windows:
            del self._windows[node_id]
        links = (("up", node_id), ("down", node_id))
        for link in links:
            self._pop_scale(link, factor)
        self._rerate(links)

    # -- chaos: degraded links -------------------------------------------------------

    def scale_link(self, link: LinkKey, factor: float) -> None:
        """Push a multiplicative capacity scale onto one directed link.

        Mitigation services call this when a :class:`DegradedLink`
        scenario opens; the scale shares the link's one stack with gray
        windows, so every overlapping change on one link composes.
        """
        check_positive("factor", factor)
        self._scales.setdefault(link, []).append(factor)
        self._rerate((link,))

    def unscale_link(self, link: LinkKey, factor: float) -> None:
        """Pop one scale of ``factor`` from a link (the first equal one).

        The factor is named because gray windows share the stack: popping
        "the oldest" could release another pusher's factor. Raises
        KeyError if the link carries no such scale.
        """
        self._pop_scale(link, factor)
        self._rerate((link,))

    def _pop_scale(self, link: LinkKey, factor: float) -> None:
        stack = self._scales.get(link, [])
        if factor not in stack:
            raise KeyError(f"link {link!r} carries no active scale of {factor!r}")
        stack.remove(factor)
        if not stack:
            del self._scales[link]

    def _rerate(self, links: Tuple[LinkKey, ...] = ()) -> None:
        """Re-rate in-flight transfers after the capacities of ``links``
        or the partitions changed.

        Under fair sharing this advances and reallocates once. Under the
        fixed-cost model it makes one pass over the active transfers: a
        running flow a partition now stalls freezes, a frozen flow no
        partition stalls thaws (at the capacities of the moment), and a
        running flow crossing a changed link restarts at its new rate.
        """
        if links:
            self._capacity_memo.clear()
        if self._fair:
            self._advance()
            self._reallocate_and_reschedule()
            return
        partitions = self._partitions
        for transfer in list(self._active):
            stalled = bool(partitions) and self._is_stalled(transfer)
            if transfer._event is None:
                if not stalled:
                    self._thaw_simple(transfer)
            elif stalled:
                self._freeze_simple(transfer)
            else:
                for link in links:
                    if link in transfer.path:
                        self._freeze_simple(transfer)
                        self._thaw_simple(transfer)
                        break

    def _is_stalled(self, transfer: Transfer) -> bool:
        """Whether the transfer crosses any active partition boundary."""
        for partition_members in self._partitions.values():
            inside = transfer.source in partition_members
            if inside != (transfer.destination in partition_members):
                return True
        return False

    def _freeze_simple(self, transfer: Transfer) -> None:
        """Stop a simple-mode transfer, banking progress at its old rate."""
        if transfer._event is not None:
            transfer._event.cancel()
            transfer._event = None
        elapsed = self._sim.now - transfer.anchor
        transfer.remaining = max(transfer.remaining - transfer.rate * elapsed, 0.0)
        transfer.anchor = self._sim.now
        transfer.rate = 0.0

    def _thaw_simple(self, transfer: Transfer) -> None:
        """(Re)start a simple-mode transfer at current link capacities,
        read through the allocator's memo."""
        memo = self._capacity_memo
        rate = math.inf
        for link in transfer.path:
            capacity = memo.get(link)
            if capacity is None:
                capacity = memo[link] = self.link_capacity(link)
            if capacity < rate:
                rate = capacity
        transfer.rate = rate
        transfer.anchor = now = self._sim.now
        # Residue within _DONE_EPSILON counts as finished — the same
        # tolerance the fair path applies — so progress banked across many
        # freeze/thaw cycles by repeated float subtraction can never leave
        # a sub-epsilon remainder that still schedules a timed completion.
        eta = (
            transfer.remaining / rate if transfer.remaining > _DONE_EPSILON else 0.0
        )
        transfer._event = self._sim.schedule_at(
            now + eta,
            lambda: self._complete_simple(transfer),
            f"xfer:{transfer.transfer_id}",
        )

    # -- service lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """No-op: the network is passive until transfers start."""

    def stop(self) -> None:
        """Cancel every active transfer and disarm every queued sweep."""
        for transfer in list(self._active):
            self.cancel(transfer)
        if self._sweep is not None:
            self._sweep.cancel()
            self._sweep = None
        for stray in self._strays:
            stray.cancel()
        self._strays.clear()

    # -- internals: simple mode ----------------------------------------------------

    def _complete_simple(self, transfer: Transfer) -> None:
        if transfer.state is not TransferState.ACTIVE:
            return
        transfer.remaining = 0.0
        self._active.pop(transfer, None)
        self._finalize(transfer, TransferState.COMPLETED)

    # -- internals: fair-sharing mode ------------------------------------------------

    def _advance(self) -> None:
        """Drain bytes for the time elapsed since the last rate change."""
        now = self._sim.now
        dt = now - self._last_update
        if dt > 0:
            for transfer in self._active:
                transfer.remaining = max(transfer.remaining - transfer.rate * dt, 0.0)
        self._last_update = now

    def _reallocate_and_reschedule(self) -> None:
        if self._sweep is not None:
            self._sweep.cancel()
            self._sweep = None
        # Complete anything already drained (stalled transfers hold their
        # residue until the partition heals), then allocate once: a callback
        # that re-enters the network allocates for itself, and nothing else
        # reads a rate before the allocation below.
        finished = [
            t
            for t in self._active
            if t.remaining <= _DONE_EPSILON
            and not (self._partitions and self._is_stalled(t))
        ]
        for transfer in finished:
            if transfer.state is not TransferState.ACTIVE:
                # A completion callback re-entered the network (started or
                # cancelled transfers) and an inner reallocation already
                # finalized this one; finalizing again would double-fire
                # callbacks and corrupt the outgoing counts.
                continue
            self._active.pop(transfer, None)
            transfer.remaining = 0.0
            self._finalize(transfer, TransferState.COMPLETED)
        self._allocate_rates()
        eta = None
        for transfer in self._active:
            if transfer.rate > 0:
                candidate = transfer.remaining / transfer.rate
                if eta is None or candidate < eta:
                    eta = candidate
        if eta is not None:
            sweep = self._sim.schedule(eta, self._on_sweep, label="net-sweep")
            if self._sweep is not None:
                self._stray(self._sweep)
            self._sweep = sweep

    def _on_sweep(self) -> None:
        current = self._sweep
        if current is not None and not current.cancelled:
            # A stray fired while the current sweep is still queued.
            self._stray(current)
        self._sweep = None
        self._advance()
        self._reallocate_and_reschedule()

    def _stray(self, sweep: EventHandle) -> None:
        """Keep a queued sweep ``_sweep`` stops naming, for :meth:`stop`."""
        self._strays = [handle for handle in self._strays if not handle.cancelled]
        self._strays.append(sweep)

    def _allocate_rates(self) -> None:
        """Max-min fair (progressive-filling) rate allocation.

        Each link carries a *live-member counter* maintained as flows get
        fixed, so a filling round costs O(links) instead of re-scanning
        every link's membership against the unfixed set — O(flows·links)
        overall rather than O(flows²·links). A link leaves the bottleneck
        scan once no live flow crosses it, and capacities come from a
        memo of :meth:`link_capacity` that every capacity change clears.
        The round structure, float arithmetic, and tie-breaking (first
        minimum in link insertion order) are identical to the naive scan,
        so allocations are bit-for-bit unchanged (golden-seed tests and
        ``tests/simulator/test_network.py``'s reference allocator pin
        this).
        """
        active = self._active
        if not active:
            return
        memo = self._capacity_memo
        partitions = self._partitions
        capacity: Dict[LinkKey, float] = {}
        members: Dict[LinkKey, List[Transfer]] = {}
        live: Dict[LinkKey, int] = {}
        for transfer in active:
            # Stalled flows join no links: they take no rate (the final
            # loop zeroes them) and free their capacity for the rest.
            if partitions and self._is_stalled(transfer):
                continue
            for link in transfer.path:
                flows = members.get(link)
                if flows is None:
                    cap = memo.get(link)
                    if cap is None:
                        cap = memo[link] = self.link_capacity(link)
                    capacity[link] = cap
                    members[link] = [transfer]
                    live[link] = 1
                else:
                    flows.append(transfer)
                    live[link] += 1

        rates: Dict[Transfer, float] = {}
        while live:
            # The bottleneck link is the one with the smallest fair share.
            bottleneck = None
            bottleneck_share = 0.0
            for link, count in live.items():
                left = capacity[link]
                share = (0.0 if left < 0.0 else left) / count
                if bottleneck is None or share < bottleneck_share:
                    bottleneck_share = share
                    bottleneck = link
            assert bottleneck is not None  # live is non-empty
            for transfer in members[bottleneck]:
                if transfer in rates:
                    continue
                rates[transfer] = bottleneck_share
                # Consume this flow's share on its path links, and retire
                # it from their live counts. Every live member of the
                # bottleneck is fixed this round, so the bottleneck leaves
                # the scan and its own capacity is never read again.
                for link in transfer.path:
                    count = live[link] - 1
                    if count:
                        live[link] = count
                        capacity[link] -= bottleneck_share
                    else:
                        del live[link]
        for transfer in active:
            transfer.rate = rates.get(transfer, 0.0)

    def _finalize(self, transfer: Transfer, state: TransferState) -> None:
        transfer.state = state
        transfer.finished_at = self._sim.now
        transfer.rate = 0.0
        count = self._outgoing[transfer.source] - 1
        assert count >= 0, f"negative outgoing count for {transfer.source!r}"
        if count == 0:
            # Prune so outgoing_count/choose_source tie-breaks stay exact
            # and the dict does not grow without bound over long runs.
            del self._outgoing[transfer.source]
        else:
            self._outgoing[transfer.source] = count
        if state is TransferState.COMPLETED:
            transfer.on_complete(transfer)
        elif transfer.on_cancel is not None:
            transfer.on_cancel(transfer)
