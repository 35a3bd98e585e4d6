"""Flow-level network model with per-node uplink/downlink capacities.

Non-dedicated environments have asymmetric broadband links (Section I: the
uplink of a typical Internet host is far slower than its downlink), and the
paper's emulation caps per-VM bandwidth between 4 and 32 Mb/s. We model a
transfer as a fluid flow from a source node to a destination node; a flow's
instantaneous rate is limited by the source's uplink and the destination's
downlink, with concurrent flows sharing links **max-min fairly**
(progressive filling). Rates are recomputed at every flow arrival,
completion or cancellation — the standard flow-level approximation of TCP
fair sharing.

``fair_sharing=False`` selects a cheaper model where each transfer runs at
``min(uplink, downlink)`` with no contention; the large-scale simulations
(Section V.C, up to 16384 nodes) use it for speed, matching the paper's own
simulator granularity.

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
from repro.simulator.topology import FlatStar, LinkKey, Topology
from repro.util.validation import check_positive

#: Remaining-bytes tolerance under which a transfer counts as finished.
#: Both completion paths honor it: the fair-sharing sweep completes any
#: flow whose residue is within it, and the simple model schedules a
#: zero-length completion instead of a timed one.
_DONE_EPSILON = 0.5


def _product(factors: List[float]) -> float:
    """Left-to-right product of a throttle/scale stack.

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

    name = "network"

    def __init__(
        self,
        sim: Simulator,
        uplink_bps: float,
        downlink_bps: Optional[float] = None,
        fair_sharing: bool = True,
        topology: Optional[Topology] = None,
    ) -> None:
        self._sim = sim
        self._default_up = check_positive("uplink_bps", uplink_bps)
        self._default_down = (
            check_positive("downlink_bps", downlink_bps)
            if downlink_bps is not None
            else self._default_up
        )
        self._fair = fair_sharing
        self._topology: Topology = topology if topology is not None else FlatStar()
        self._uplinks: Dict[NodeId, float] = {}
        self._downlinks: Dict[NodeId, float] = {}
        # Insertion-ordered: Transfer hashes by identity, so iterating a
        # plain set would depend on memory addresses and break seed
        # determinism. Every iteration below relies on this ordering.
        self._active: Dict[Transfer, None] = {}
        self._outgoing: Dict[NodeId, int] = defaultdict(int)
        self._ids = itertools.count()
        self._last_update = sim.now
        self._sweep: Optional[EventHandle] = None
        #: Active partitions: id -> member set. A transfer crossing any
        #: partition boundary is stalled (rate 0) until the cut heals.
        self._partitions: Dict[str, frozenset] = {}
        #: Gray-node throttles: node -> stack of multiplicative factors,
        #: one per active throttle window, in arming order. Overlapping
        #: windows on one node compose multiplicatively; each restore
        #: releases exactly one factor, so the second window survives the
        #: first window's restore. The base link configuration (defaults
        #: and :meth:`set_link` overrides) is never rewritten by
        #: throttles, so overrides made mid-window compose too.
        self._throttles: Dict[NodeId, List[float]] = {}
        #: Cached product of each node's throttle stack (hot-path read).
        self._throttle_scale: Dict[NodeId, float] = {}
        #: Degraded-link scales: link -> stack of multiplicative factors
        #: (mitigation services push/pop these), plus the cached product.
        self._link_scales: Dict[LinkKey, List[float]] = {}
        self._link_scale: Dict[LinkKey, float] = {}
        #: :meth:`link_capacity` per link, filled by the allocator and
        #: cleared by every method that changes a capacity: set_link,
        #: throttle_node, restore_node, scale_link and unscale_link.
        self._capacity_memo: Dict[LinkKey, float] = {}

    # -- configuration ----------------------------------------------------------

    def set_link(
        self,
        node_id: NodeId,
        uplink_bps: Optional[float] = None,
        downlink_bps: Optional[float] = None,
    ) -> None:
        """Override one node's link capacities."""
        self._capacity_memo.clear()
        if uplink_bps is not None:
            self._uplinks[node_id] = check_positive("uplink_bps", uplink_bps)
        if downlink_bps is not None:
            self._downlinks[node_id] = check_positive("downlink_bps", downlink_bps)

    def uplink(self, node_id: NodeId) -> float:
        """The node's uplink capacity in bytes/second (throttles applied)."""
        base = self._uplinks.get(node_id, self._default_up)
        if self._throttle_scale:
            factor = self._throttle_scale.get(node_id)
            if factor is not None:
                return base * factor
        return base

    def downlink(self, node_id: NodeId) -> float:
        """The node's downlink capacity in bytes/second (throttles applied)."""
        base = self._downlinks.get(node_id, self._default_down)
        if self._throttle_scale:
            factor = self._throttle_scale.get(node_id)
            if factor is not None:
                return base * factor
        return base

    def link_capacity(self, link: LinkKey) -> float:
        """Capacity of any directed link, degraded-link scales applied.

        Host tiers (``up``/``down``) read the per-node configuration —
        defaults, :meth:`set_link` overrides, and gray-node throttles all
        compose; fabric tiers read the topology's oversubscribed trunk
        capacity. Scales pushed by :meth:`scale_link` multiply on top.
        """
        tier = link[0]
        if tier == "up":
            base = self.uplink(link[1])
        elif tier == "down":
            base = self.downlink(link[1])
        else:
            base = self._topology.fabric_capacity(link)
        scales = self._link_scale
        if scales:
            factor = scales.get(link)
            if factor is not None:
                return base * factor
        return base

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
        """Uncontended streaming rate between two default-link nodes."""
        return min(self._default_up, self._default_down)

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
        """Chaos partition (NETWORK phase): stall boundary-crossing flows."""
        self.begin_partition(event.partition_id, event.members)

    def handle_partition_healed(self, event: PartitionHealed) -> None:
        """Partition healed (NETWORK phase): resume stalled flows."""
        self.end_partition(event.partition_id)

    def handle_node_degraded(self, event: NodeDegraded) -> None:
        """Gray node (NETWORK phase): throttle its links mid-flight."""
        self.throttle_node(event.node_id, event.link_factor)

    def handle_node_restored(self, event: NodeRestored) -> None:
        """Gray node recovered (NETWORK phase): lift the throttle."""
        self.restore_node(event.node_id)

    # -- chaos: partitions and gray throttles ------------------------------------------

    def begin_partition(self, partition_id: str, members: Tuple[NodeId, ...]) -> None:
        """Cut ``members`` off: transfers crossing the boundary stall.

        Stalled transfers keep their progress and resume from it at
        :meth:`end_partition`; intra-partition and outside flows are
        untouched (and, under fair sharing, inherit the freed capacity).
        """
        if partition_id in self._partitions:
            raise ValueError(f"partition {partition_id!r} already active")
        if self._fair:
            self._advance()
            self._partitions[partition_id] = frozenset(members)
            self._reallocate_and_reschedule()
        else:
            self._partitions[partition_id] = frozenset(members)
            for transfer in list(self._active):
                if transfer._event is not None and self._is_stalled(transfer):
                    self._freeze_simple(transfer)

    def end_partition(self, partition_id: str) -> None:
        """Heal a partition; flows it stalled resume from their progress."""
        if partition_id not in self._partitions:
            raise ValueError(f"partition {partition_id!r} is not active")
        del self._partitions[partition_id]
        if self._fair:
            self._advance()
            self._reallocate_and_reschedule()
        else:
            for transfer in list(self._active):
                if transfer._event is None and not (
                    self._partitions and self._is_stalled(transfer)
                ):
                    self._thaw_simple(transfer)

    def throttle_node(self, node_id: NodeId, link_factor: float) -> None:
        """Scale one node's link capacities by ``link_factor`` (gray node).

        Throttles *stack*: overlapping gray windows on one node compose
        multiplicatively, and each :meth:`restore_node` releases exactly
        one window — so the first window's restore no longer lifts a
        second, still-active throttle. The base configuration (defaults
        and :meth:`set_link` overrides) is left untouched, which also
        means an override made mid-window survives the restore instead of
        being clobbered by a pre-throttle snapshot.
        """
        check_positive("link_factor", link_factor)
        stack = self._throttles.setdefault(node_id, [])
        stack.append(link_factor)
        self._throttle_scale[node_id] = _product(stack)
        self._capacity_memo.clear()
        self._rerate_node(node_id)

    def restore_node(self, node_id: NodeId) -> None:
        """Release one gray-node throttle window (oldest first).

        Restores are matched to throttles first-in-first-out: scenario
        windows close in the order they opened whenever durations are
        equal, and the *product* of the remaining stack is correct under
        any interleaving. A restore with no active throttle is a no-op.
        """
        stack = self._throttles.get(node_id)
        if not stack:
            return
        stack.pop(0)
        if stack:
            self._throttle_scale[node_id] = _product(stack)
        else:
            del self._throttles[node_id]
            del self._throttle_scale[node_id]
        self._capacity_memo.clear()
        self._rerate_node(node_id)

    # -- chaos: degraded links -------------------------------------------------------

    def scale_link(self, link: LinkKey, factor: float) -> None:
        """Push a multiplicative capacity scale onto one directed link.

        Mitigation services call this when a :class:`DegradedLink`
        scenario opens; scales stack exactly like node throttles, so
        overlapping degradations on one link compose.
        """
        check_positive("factor", factor)
        stack = self._link_scales.setdefault(link, [])
        stack.append(factor)
        self._link_scale[link] = _product(stack)
        self._capacity_memo.clear()
        self._rerate_link(link)

    def unscale_link(self, link: LinkKey, factor: Optional[float] = None) -> None:
        """Pop one scale from a link (the first matching ``factor``, or
        the oldest when unspecified). Raises if the link carries none."""
        stack = self._link_scales.get(link)
        if not stack:
            raise KeyError(f"link {link!r} carries no active scale")
        if factor is None:
            stack.pop(0)
        else:
            try:
                stack.remove(factor)
            except ValueError:
                raise KeyError(
                    f"link {link!r} carries no active scale of {factor!r}"
                ) from None
        if stack:
            self._link_scale[link] = _product(stack)
        else:
            del self._link_scales[link]
            del self._link_scale[link]
        self._capacity_memo.clear()
        self._rerate_link(link)

    def _rerate_node(self, node_id: NodeId) -> None:
        """Re-rate in-flight transfers after a capacity change on a node."""
        if self._fair:
            self._advance()
            self._reallocate_and_reschedule()
        else:
            for transfer in list(self._active):
                if transfer._event is None:
                    continue  # stalled; heal-time thaw reads new capacities
                if transfer.source == node_id or transfer.destination == node_id:
                    self._freeze_simple(transfer)
                    self._thaw_simple(transfer)

    def _rerate_link(self, link: LinkKey) -> None:
        """Re-rate in-flight transfers after a capacity change on a link."""
        if self._fair:
            self._advance()
            self._reallocate_and_reschedule()
        else:
            for transfer in list(self._active):
                if transfer._event is None:
                    continue  # stalled; heal-time thaw reads new capacities
                if link in transfer.path:
                    self._freeze_simple(transfer)
                    self._thaw_simple(transfer)

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
        """(Re)start a simple-mode transfer at current link capacities."""
        path = transfer.path
        if len(path) == 2:
            rate = min(self.link_capacity(path[0]), self.link_capacity(path[1]))
        else:
            rate = min(self.link_capacity(link) for link in path)
        transfer.rate = rate
        transfer.anchor = self._sim.now
        # Residue within _DONE_EPSILON counts as finished — the same
        # tolerance the fair path applies — so progress banked across many
        # freeze/thaw cycles by repeated float subtraction can never leave
        # a sub-epsilon remainder that still schedules a timed completion.
        eta = (
            transfer.remaining / rate if transfer.remaining > _DONE_EPSILON else 0.0
        )
        transfer._event = self._sim.schedule(
            eta,
            lambda: self._complete_simple(transfer),
            label=f"xfer-{transfer.transfer_id}",
        )

    # -- service lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """No-op: the network is passive until transfers start."""

    def stop(self) -> None:
        """Cancel every active transfer and disarm the rate sweep."""
        for transfer in list(self._active):
            self.cancel(transfer)
        if self._sweep is not None:
            self._sweep.cancel()
            self._sweep = None

    def describe(self) -> Dict[str, object]:
        return {
            "service": self.name,
            "active_transfers": len(self._active),
            "fair_sharing": self._fair,
            "uplink_bps": self._default_up,
            "downlink_bps": self._default_down,
            "partitions": len(self._partitions),
            "throttled_nodes": len(self._throttles),
            "degraded_links": len(self._link_scales),
        }

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
        self._allocate_rates()
        if self._sweep is not None:
            self._sweep.cancel()
            self._sweep = None
        # Complete anything already drained before looking for the next ETA
        # (stalled transfers hold their residue until the partition heals).
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
        if finished:
            self._allocate_rates()
        eta = None
        for transfer in self._active:
            if transfer.rate > 0:
                candidate = transfer.remaining / transfer.rate
                if eta is None or candidate < eta:
                    eta = candidate
        if eta is not None:
            self._sweep = self._sim.schedule(eta, self._on_sweep, label="net-sweep")

    def _on_sweep(self) -> None:
        self._sweep = None
        self._advance()
        self._reallocate_and_reschedule()

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
