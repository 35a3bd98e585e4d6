"""Block re-replication: the NameNode's durability service.

Real HDFS heals under-replicated blocks: when a DataNode is declared dead,
every block it held is queued (fewest live replicas first) and copied from
a surviving replica to a fresh node. That recovery traffic is exactly the
"non-trivial data migration" cost ADAPT's placement is designed to avoid
(Section II.B), so a credible baseline must pay it. This module reproduces
the pipeline:

* :class:`ReplicationMonitor` subscribes to the failure-detection signals
  (``NodeDeclaredDead`` / ``NodeReturned``, from the heartbeat watchdog or
  the oracle) and maintains a priority queue of under-replicated blocks
  keyed by live replica count — a block down to its last copy jumps the
  queue.
* Copies run over the shared :class:`~repro.simulator.network.Network`
  under a configurable concurrency cap, so recovery traffic contends with
  job traffic the way the real balancer does.
* A copy torn down mid-transfer (source or target died) is retried with
  exponential backoff against freshly chosen endpoints, up to a per-block
  retry budget; an exhausted budget parks the block until the next
  membership event re-queues it.
* When an interrupted holder *returns*, now-redundant queued work is
  dropped, in-flight copies that became unnecessary are cancelled, and
  over-replicated blocks (healed while the holder was away) are garbage
  collected back down to their target.
* Permanent failures (disk wiped — see
  :meth:`~repro.simulator.failures.FailureInjector.schedule_permanent_failure`)
  purge the node from the location map at detection time; blocks left with
  zero replicas are recorded as lost in :class:`DurabilityMetrics`.

Availability awareness: among eligible re-replication targets the monitor
prefers the node with the lowest believed unavailability (the Performance
Predictor's estimate), then the emptiest — so recovery placement follows
the same principle as ADAPT's ingest placement.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.core.ids import NodeId
from repro.hdfs.namenode import NameNode
from repro.simulator.engine import EventHandle, Simulator
from repro.simulator.events import (
    EventBus,
    NodeDeclaredDead,
    NodePurged,
    NodeReturned,
    ReplicaAdded,
)
from repro.simulator.metrics import DurabilityMetrics
from repro.simulator.network import Network, Transfer
from repro.util.validation import check_positive


class ReplicationMonitor:
    """NameNode-attached service that heals under-replicated blocks."""

    def __init__(
        self,
        sim: Simulator,
        namenode: NameNode,
        network: Network,
        metrics: Optional[DurabilityMetrics] = None,
        max_concurrent: int = 2,
        retry_budget: int = 4,
        backoff_base: float = 5.0,
        backoff_max: float = 60.0,
        is_permanent: Optional[Callable[[NodeId], bool]] = None,
        bus: Optional[EventBus] = None,
    ) -> None:
        """``is_permanent(node_id)`` tells the monitor whether a detected
        death is a permanent loss (injector knowledge). The monitor
        publishes ``NodePurged`` after a permanent node's metadata purge and
        ``ReplicaAdded`` when a re-replication copy lands; observers
        subscribe to those on ``bus``.
        """
        if max_concurrent < 1:
            raise ValueError(f"max_concurrent must be >= 1, got {max_concurrent}")
        if retry_budget < 0:
            raise ValueError(f"retry_budget must be >= 0, got {retry_budget}")
        check_positive("backoff_base", backoff_base)
        check_positive("backoff_max", backoff_max)
        self._sim = sim
        self._namenode = namenode
        self._network = network
        self._metrics = metrics if metrics is not None else DurabilityMetrics()
        self._max_concurrent = max_concurrent
        self._retry_budget = retry_budget
        self._backoff_base = backoff_base
        self._backoff_max = backoff_max
        self._is_permanent = is_permanent if is_permanent is not None else lambda _n: False
        self._bus = bus if bus is not None else EventBus()

        self._heap: List[Tuple[int, int, str]] = []  # (live replicas, seq, block)
        self._seq = itertools.count()
        self._queued: Set[str] = set()
        self._inflight: Dict[str, Transfer] = {}
        self._inflight_target: Dict[str, NodeId] = {}
        self._retries: Dict[str, int] = {}
        self._retry_events: Dict[str, EventHandle] = {}
        self._self_cancelled: Set[str] = set()
        self._stopped = False

    # -- state ---------------------------------------------------------------------

    @property
    def metrics(self) -> DurabilityMetrics:
        return self._metrics

    @property
    def inflight_count(self) -> int:
        return len(self._inflight)

    def is_idle(self) -> bool:
        return not (self._queued or self._inflight or self._retry_events)

    # -- detection signals -----------------------------------------------------------

    def handle_node_dead(self, event: NodeDeclaredDead) -> None:
        """Bus handler (STORAGE phase): a detector declared the node dead,
        so its blocks are queued.

        For a permanent loss the node is first purged from the location
        map (its replicas are destroyed, not merely unreachable) and blocks
        left with no replica are recorded as lost.
        """
        if self._stopped:
            return
        node_id = event.node_id
        if self._is_permanent(node_id):
            # Physical accounting (permanent_failures / replicas_lost)
            # happened at wipe time in the injector wiring; here only the
            # metadata consequence is recorded (idempotently).
            affected, lost = self._namenode.purge_node(node_id)
            self._metrics.record_lost_blocks(lost)
            self._bus.publish(NodePurged(time=event.time, node_id=node_id))
        else:
            affected = self._namenode.located_on(node_id)
        for block_id in affected:
            self._consider(block_id)
        self._pump()

    def handle_node_returned(self, event: NodeReturned) -> None:
        """Bus handler (STORAGE phase): a believed-dead holder is back, so
        redundant work is dropped and healed blocks are GC'd.

        In-flight copies whose block is no longer under-replicated are
        cancelled (the returned replica made them moot); blocks healed
        while the holder was away are garbage collected back down to their
        replication target, preferring to drop the returner's stale copy.
        """
        if self._stopped:
            return
        node_id = event.node_id
        for block_id in [b for b, _t in list(self._inflight.items())]:
            if not self._shortfall(block_id):
                self._cancel_inflight(block_id)
        for block_id in self._namenode.located_on(node_id):
            holders = self._namenode.up_holders(block_id)
            target = self._namenode.replication_target(block_id)
            excess = len(self._namenode.replica_holders(block_id)) - target
            # Drop the returned node's copy first (it is the stale one),
            # then believed-live holders in reverse lexical order.
            if excess > 0:
                victims = [
                    node_id,
                    *(h for h in sorted(holders, reverse=True) if h != node_id),
                ]
                for victim in victims[:excess]:
                    self._namenode.remove_replica(block_id, victim)
                    self._metrics.overreplicated_removed += 1
            else:
                self._consider(block_id)
        self._pump()

    # -- lifecycle -----------------------------------------------------------------------

    def start(self) -> None:
        """No startup work; healing is driven by detection events."""

    def stop(self) -> None:
        """Cancel queued work, armed retries, and in-flight copies."""
        self._stopped = True
        for event in self._retry_events.values():
            event.cancel()
        self._retry_events.clear()
        for block_id in list(self._inflight):
            self._cancel_inflight(block_id)
        self._queued.clear()
        self._heap.clear()

    # -- scheduling internals --------------------------------------------------------------

    def _shortfall(self, block_id: str) -> int:
        """How many replicas the block is short, from live holders."""
        try:
            holders = self._namenode.replica_holders(block_id)
        except KeyError:
            return 0  # file deleted
        live = [n for n in holders if self._namenode.is_live(n)]
        return max(self._namenode.replication_target(block_id) - len(live), 0)

    def _consider(self, block_id: str) -> None:
        """Queue a block if it is under-replicated and not already handled."""
        if block_id in self._queued or block_id in self._inflight:
            return
        if block_id in self._retry_events:
            return  # backoff timer owns it
        if not self._shortfall(block_id):
            return
        live = len(self._namenode.up_holders(block_id))
        heapq.heappush(self._heap, (live, next(self._seq), block_id))
        self._queued.add(block_id)

    def _pump(self) -> None:
        """Start copies while the concurrency cap allows."""
        while len(self._inflight) < self._max_concurrent and self._heap:
            _live, _seq, block_id = heapq.heappop(self._heap)
            if block_id not in self._queued:
                continue  # stale heap entry
            self._queued.discard(block_id)
            if not self._shortfall(block_id):
                continue  # healed (or deleted) while queued
            if not self._start_copy(block_id):
                # No usable source or target right now; the next membership
                # event re-queues the block (handle_node_dead/_returned).
                continue

    def _start_copy(self, block_id: str) -> bool:
        sources = self._namenode.up_holders(block_id)
        if not sources:
            return False
        source = min(sources, key=lambda n: (self._network.outgoing_count(n), n))
        target = self._choose_target(block_id)
        if target is None:
            return False
        size = self._namenode.block(block_id).size_bytes
        transfer = self._network.start_transfer(
            source=source,
            destination=target,
            size_bytes=size,
            on_complete=lambda t, b=block_id: self._on_copy_done(b, t),
            on_cancel=lambda t, b=block_id: self._on_copy_cancelled(b, t),
            label=f"rereplicate:{block_id}",
        )
        self._inflight[block_id] = transfer
        self._inflight_target[block_id] = target
        self._metrics.rereplications_started += 1
        return True

    def _choose_target(self, block_id: str) -> Optional[NodeId]:
        """Best believed-live non-holder: most available, then emptiest."""
        holders = self._namenode.replica_holders(block_id)
        predictor = self._namenode.predictor
        candidates = [n for n in self._namenode.live_nodes() if n not in holders]
        if not candidates:
            return None
        return min(
            candidates,
            key=lambda n: (
                1.0 - predictor.estimate(n).steady_state_availability,
                self._namenode.datanode(n).block_count,
                n,
            ),
        )

    def _on_copy_done(self, block_id: str, transfer: Transfer) -> None:
        self._inflight.pop(block_id, None)
        target = self._inflight_target.pop(block_id, None)
        if self._stopped:
            return
        self._metrics.record_copy_traffic(transfer.transferred, transfer.duration)
        landed = False
        if target is not None:
            try:
                holders = self._namenode.replica_holders(block_id)
            except KeyError:
                holders = None  # file deleted mid-copy
            if holders is not None and target not in holders:
                self._namenode.add_replica(block_id, target)
                landed = True
        if landed:
            self._metrics.rereplications_completed += 1
            self._retries.pop(block_id, None)
            if target is not None:
                self._bus.publish(
                    ReplicaAdded(time=self._sim.now, block_id=block_id, node_id=target)
                )
            self._consider(block_id)  # still short? (lost 2 of 3, say)
        self._pump()

    def _on_copy_cancelled(self, block_id: str, transfer: Transfer) -> None:
        self._inflight.pop(block_id, None)
        self._inflight_target.pop(block_id, None)
        if block_id in self._self_cancelled:
            # We tore it down ourselves (redundant work / stop()): the
            # partial traffic still counts, but it is not a failure.
            self._self_cancelled.discard(block_id)
            if not self._stopped:
                self._metrics.record_copy_traffic(transfer.transferred, transfer.duration)
            return
        if self._stopped:
            return
        self._metrics.record_copy_traffic(transfer.transferred, transfer.duration)
        self._metrics.rereplication_failures += 1
        retries = self._retries.get(block_id, 0) + 1
        self._retries[block_id] = retries
        if retries > self._retry_budget:
            self._metrics.rereplication_abandoned += 1
            self._retries.pop(block_id, None)
            self._pump()
            return
        self._metrics.rereplication_retries += 1
        delay = min(self._backoff_base * (2.0 ** (retries - 1)), self._backoff_max)
        self._retry_events[block_id] = self._sim.schedule(
            delay,
            lambda: self._on_retry_due(block_id),
            label=f"rereplicate-retry:{block_id}",
        )
        self._pump()

    def _on_retry_due(self, block_id: str) -> None:
        self._retry_events.pop(block_id, None)
        if self._stopped:
            return
        self._consider(block_id)
        self._pump()

    def _cancel_inflight(self, block_id: str) -> None:
        transfer = self._inflight.get(block_id)
        if transfer is None:
            return
        self._self_cancelled.add(block_id)
        self._network.cancel(transfer)
        # The cancel callback fires synchronously and clears _inflight.
        self._self_cancelled.discard(block_id)
