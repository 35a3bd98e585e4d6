"""Discrete-event simulation substrate.

The paper evaluates ADAPT twice: on an emulated non-dedicated environment
(Magellan VMs with injected interruptions and traffic-shaped NICs) and with
"a discrete event simulator ... with mechanism analogous to that of Hadoop"
(Section V.C). This package is that simulator's foundation:

* :mod:`repro.simulator.engine` — the event loop (deterministic heap).
* :mod:`repro.simulator.network` — flow-level transfers over links of one
  host rate times a per-link scale stack, with max-min fair sharing.
* :mod:`repro.simulator.failures` — node up/down driven by interruption
  processes or replayed traces.
* :mod:`repro.simulator.metrics` — the rework/recovery/migration/misc
  overhead decomposition of Figure 5.
* :mod:`repro.simulator.events` — the typed event bus every subsystem
  publishes to and subscribes on, with fixed dispatch phases.
* :mod:`repro.simulator.topology` — the fabric transfers cross: a flat
  star (default) or a hierarchical Clos with oversubscribable trunks.
* :mod:`repro.simulator.mitigation` — interchangeable responses to
  degraded-link chaos windows.
* :mod:`repro.simulator.trace` — bus-event capture and JSONL export.
"""

from repro.simulator.engine import EventHandle, Simulator
from repro.simulator.events import (
    BlockLost,
    Event,
    EventBus,
    LinkDegraded,
    LinkRestored,
    NodeDeclaredDead,
    NodeDown,
    NodeEvent,
    NodePurged,
    NodeReturned,
    NodeUp,
    PermanentFailure,
    Phase,
    ReplicaAdded,
    TaskStateChange,
)
from repro.simulator.failures import FailureInjector
from repro.simulator.metrics import MapPhaseMetrics, OverheadBreakdown
from repro.simulator.mitigation import MITIGATIONS, LinkMitigationService
from repro.simulator.network import Network, Transfer, TransferState
from repro.simulator.topology import (
    TOPOLOGIES,
    ClosTopology,
    FlatStar,
    Topology,
    make_topology,
)
from repro.simulator.trace import TraceRecord, TraceRecorder

__all__ = [
    "Simulator",
    "EventHandle",
    "Network",
    "Transfer",
    "TransferState",
    "FailureInjector",
    "MapPhaseMetrics",
    "OverheadBreakdown",
    "EventBus",
    "Phase",
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
    "LinkDegraded",
    "LinkRestored",
    "Topology",
    "FlatStar",
    "ClosTopology",
    "TOPOLOGIES",
    "make_topology",
    "LinkMitigationService",
    "MITIGATIONS",
    "TraceRecord",
    "TraceRecorder",
]
