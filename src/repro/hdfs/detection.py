"""Oracle failure detection: instant, lag-free belief updates.

The emulated testbed supports two failure-detection models. The default,
:class:`~repro.hdfs.heartbeat.HeartbeatService`, reproduces real HDFS
behaviour — the NameNode's belief lags physical state by up to
``interval * miss_threshold`` seconds. This module provides the other:
an oracle that flips the NameNode's belief the instant the physical
transition happens, isolating placement effects from detection-lag
effects in experiments.

Both detectors speak the same bus protocol: they consume the injector's
physical ``NodeDown`` / ``NodeUp`` events (DETECTION phase) and publish
the belief-change events ``NodeDeclaredDead`` / ``NodeReturned``.
Downstream consumers (replication monitor, JobTracker) subscribe to the
belief events only, so swapping detectors is a one-line wiring change in
``build_cluster()``.
"""

from __future__ import annotations

from typing import Optional

from repro.hdfs.namenode import NameNode
from repro.simulator.events import (
    EventBus,
    NodeDeclaredDead,
    NodeDown,
    NodeReturned,
    NodeUp,
)


class OracleDetector:
    """Zero-lag detector: physical transitions become belief instantly."""

    def __init__(self, namenode: NameNode, bus: Optional[EventBus] = None) -> None:
        self._namenode = namenode
        self._bus = bus if bus is not None else EventBus()

    def handle_node_down(self, event: NodeDown) -> None:
        """Bus handler (DETECTION phase): declare the node dead now.

        Idempotent: a duplicate down for a node already believed dead
        (overlapping chaos outages) publishes nothing.
        """
        if not self._namenode.is_live(event.node_id):
            return
        self._namenode.mark_dead(event.node_id)
        self._bus.publish(NodeDeclaredDead(time=event.time, node_id=event.node_id))

    def handle_node_up(self, event: NodeUp) -> None:
        """Bus handler (DETECTION phase): believe the return now.

        Idempotent: an up for a node already believed live is a no-op.
        """
        if self._namenode.is_live(event.node_id):
            return
        self._namenode.mark_alive(event.node_id)
        self._bus.publish(NodeReturned(time=event.time, node_id=event.node_id))

    def start(self) -> None:
        """No startup work; subscriptions are wired at build time."""

    def stop(self) -> None:
        """Nothing to disarm: the oracle holds no scheduled events."""
