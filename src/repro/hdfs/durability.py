"""Permanent-failure storage pipeline: the wipe and its consequences.

A permanent failure destroys a host's disk the instant it strikes
(:class:`~repro.simulator.events.PermanentFailure` is published before the
accompanying ``NodeDown`` — destruction precedes detection). This service
owns the storage-side consequences, in STORAGE phase so every later
reaction observes the wiped state:

* wipe the DataNode's physical storage and account the destroyed replicas
  in :class:`~repro.simulator.metrics.DurabilityMetrics`;
* work out which blocks lost their *last* physical replica and publish a
  :class:`~repro.simulator.events.BlockLost` for each — dispatched nested,
  so the JobTracker abandons the blocks' tasks before the NETWORK phase
  tears down in-flight fetches that would otherwise retry against
  replicas that no longer exist.

The NameNode's location map is deliberately *not* touched here: metadata
still lists the wiped node as a holder until failure detection fires and
the replication monitor purges it (``NodePurged``) — exactly the window in
which reads against the wiped node fail and the hardened fetch path earns
its keep.
"""

from __future__ import annotations

from typing import Optional

from repro.hdfs.namenode import NameNode
from repro.simulator.events import BlockLost, EventBus, PermanentFailure
from repro.simulator.metrics import DurabilityMetrics


class PermanentFailurePipeline:
    """STORAGE-phase consumer of :class:`PermanentFailure` events."""

    def __init__(
        self,
        namenode: NameNode,
        metrics: DurabilityMetrics,
        bus: Optional[EventBus] = None,
    ) -> None:
        self._namenode = namenode
        self._metrics = metrics
        self._bus = bus if bus is not None else EventBus()

    def handle_permanent_failure(self, event: PermanentFailure) -> None:
        """Wipe the disk, account the loss, announce unrecoverable blocks."""
        node_id = event.node_id
        destroyed = self._namenode.datanode(node_id).wipe()
        self._metrics.record_permanent_failure(replicas_destroyed=len(destroyed))
        lost = [
            block_id
            for block_id in destroyed
            if not any(
                self._namenode.datanode(holder).has_block(block_id)
                for holder in self._namenode.replica_holders(block_id)
            )
        ]
        self._metrics.record_lost_blocks(lost)
        for block_id in lost:
            self._bus.publish(BlockLost(time=event.time, block_id=block_id))

    def start(self) -> None:
        """No startup work; driven entirely by injector events."""

    def stop(self) -> None:
        """Nothing to disarm: the pipeline holds no scheduled events."""
