"""Layer attribution from outside the program: spans over public hooks.

:func:`install` wraps, for the life of one traced pass,

* every action handed to ``Simulator.schedule_at`` (``schedule`` goes
  through it), plus ``Simulator.step`` / ``Simulator.run`` themselves;
* every bus handler, through ``EventBus.set_dispatch_interceptor``
  (installed on each bus as it is constructed), plus
  ``EventBus.publish``;
* a few cross-layer public methods (:data:`WRAPPED`) and the callbacks
  passed to ``Network.start_transfer``.

Each span is charged to a layer by the module of the callable it wraps
(:data:`MODULE_LAYERS`, longest dotted prefix wins). A module with no
entry raises instead of landing in a catch-all bucket, so new code
cannot silently drop out of attribution. A layer's *self* time is its
span time minus the time of the spans nested inside it; the pass's own
glue outside every span is reported as unattributed.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Tuple

from repro.availability.seti import SetiTraceGenerator
from repro.core.hashtable import WeightedHashTable
from repro.core.placement import PlacementPlan
from repro.hdfs.namenode import NameNode
from repro.mapreduce.jobtracker import JobTracker
from repro.mapreduce.tasktracker import TaskTracker
from repro.simulator.engine import Simulator
from repro.simulator.events import EventBus
from repro.simulator.failures import FailureInjector
from repro.simulator.invariants import InvariantAuditor
from repro.simulator.network import Network

#: Report order of the layers.
LAYERS = (
    "cluster",
    "availability",
    "engine",
    "events",
    "network",
    "placement",
    "hdfs",
    "heartbeat",
    "mapreduce",
    "invariants",
)

#: Module (or package) -> layer. ``repro.util`` holds leaf helpers that
#: only ever run inside another layer's span; ``repro.devtools`` and the
#: CLI never run inside a cell. Neither is a layer.
MODULE_LAYERS: Dict[str, str] = {
    "repro.runtime": "cluster",
    "repro.experiments": "cluster",
    "repro.availability": "availability",
    "repro.simulator.failures": "availability",
    "repro.simulator.chaos": "availability",
    "repro.simulator.scenarios": "availability",
    "repro.simulator.engine": "engine",
    "repro.simulator.events": "events",
    "repro.simulator.trace": "events",
    "repro.simulator.network": "network",
    "repro.simulator.topology": "network",
    "repro.simulator.mitigation": "network",
    "repro.core": "placement",
    "repro.hdfs": "hdfs",
    "repro.hdfs.heartbeat": "heartbeat",
    "repro.hdfs.detection": "heartbeat",
    "repro.mapreduce": "mapreduce",
    "repro.simulator.metrics": "mapreduce",
    "repro.workloads": "mapreduce",
    "repro.simulator.invariants": "invariants",
}

#: The cross-layer public methods wrapped in spans.
WRAPPED: Tuple[Tuple[type, str], ...] = (
    (Simulator, "step"),
    (Simulator, "run"),
    (EventBus, "publish"),
    (Network, "cancel"),
    (Network, "cancel_involving"),
    (NameNode, "create_file"),
    (JobTracker, "try_assign"),
    (JobTracker, "on_attempt_succeeded"),
    (JobTracker, "on_attempt_failed"),
    (FailureInjector, "attach_host"),
    (SetiTraceGenerator, "sample_hosts"),
    (InvariantAuditor, "audit"),
)


def layer_of_module(module: str) -> str:
    """The layer a module belongs to; KeyError when none is mapped."""
    name = module
    while name:
        layer = MODULE_LAYERS.get(name)
        if layer is not None:
            return layer
        name = name.rpartition(".")[0]
    raise KeyError(f"module {module!r} maps to no benchmark layer; add it to MODULE_LAYERS")


class Tracer:
    """Accumulates per-layer self time, span counts and work counters."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.calls: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        #: Work counters (transfers, table builds, attempts, ...).
        self.counts: Counter[str] = Counter()
        #: Scheduled actions fired, by label kind (the text before ":").
        self.fired: Counter[str] = Counter()
        #: Child-time accumulators of the open spans; slot 0 is the root.
        self._stack: List[float] = [0.0]
        self._layers: Dict[Any, str] = {}

    @property
    def attributed_s(self) -> float:
        """Time covered by top-level spans (the root's children)."""
        return self._stack[0]

    def layer_of(self, fn: Callable[..., Any]) -> str:
        target = getattr(fn, "__func__", fn)
        # Wrappers share one code object across modules, so the module is
        # part of the key; classes (``MapJob``) key by themselves.
        key = (getattr(target, "__code__", target), target.__module__)
        layer = self._layers.get(key)
        if layer is None:
            layer = self._layers[key] = layer_of_module(target.__module__)
        return layer

    def span(self, layer: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        stack = self._stack
        stack.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self.self_s[layer] += elapsed - stack.pop()
            self.calls[layer] += 1
            stack[-1] += elapsed

    def call(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Call ``fn`` inside a span charged to its module's layer."""
        return self.span(self.layer_of(fn), fn, *args, **kwargs)

    def wrap(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        layer = self.layer_of(fn)
        span = self.span

        def traced(*args: Any, **kwargs: Any) -> Any:
            return span(layer, fn, *args, **kwargs)

        return traced

    def intercept(self, handler: Callable[[Any], None], phase: Any, event: Any) -> None:
        """``EventBus`` dispatch interceptor: one span per handler call."""
        self.span(self.layer_of(handler), handler, event)


def install(tracer: Tracer) -> Callable[[], None]:
    """Attach ``tracer`` to the public hooks; returns the undo function."""
    saved: List[Tuple[type, str, Any]] = []

    def patch(cls: type, name: str, replacement: Callable[..., Any]) -> None:
        original = cls.__dict__[name]
        saved.append((cls, name, original))
        setattr(cls, name, functools.wraps(original)(replacement))

    for cls, name in WRAPPED:
        original = cls.__dict__[name]

        def method(
            *args: Any,
            _original: Any = original,
            _layer: str = layer_of_module(original.__module__),
            **kwargs: Any,
        ) -> Any:
            return tracer.span(_layer, _original, *args, **kwargs)

        patch(cls, name, method)

    counts = tracer.counts
    choose_many = PlacementPlan.choose_replicas_many
    placement = layer_of_module(choose_many.__module__)

    def traced_choose_many(
        plan: PlacementPlan, rng: Any, num_blocks: int, count: Any = None
    ) -> Any:
        counts["placement.blocks"] += num_blocks
        return tracer.span(placement, choose_many, plan, rng, num_blocks, count)

    patch(PlacementPlan, "choose_replicas_many", traced_choose_many)

    table_init = WeightedHashTable.__init__

    def traced_table_init(table: WeightedHashTable, *args: Any, **kwargs: Any) -> None:
        counts["placement.table_builds"] += 1
        tracer.span(placement, table_init, table, *args, **kwargs)

    patch(WeightedHashTable, "__init__", traced_table_init)

    schedule_at = Simulator.schedule_at
    fired = tracer.fired

    def traced_schedule_at(
        sim: Simulator, when: float, action: Callable[[], None], label: str = ""
    ) -> Any:
        layer = tracer.layer_of(action)
        kind = label.partition(":")[0]

        def traced_action() -> None:
            fired[kind] += 1
            tracer.span(layer, action)

        return schedule_at(sim, when, traced_action, label)

    patch(Simulator, "schedule_at", traced_schedule_at)

    start_transfer = Network.start_transfer
    network_layer = layer_of_module(start_transfer.__module__)

    def traced_start_transfer(
        network: Network,
        source: Any,
        destination: Any,
        size_bytes: float,
        on_complete: Callable[..., None],
        on_cancel: Any = None,
        label: str = "",
    ) -> Any:
        counts["network.transfers"] += 1
        return tracer.span(
            network_layer,
            start_transfer,
            network,
            source,
            destination,
            size_bytes,
            tracer.wrap(on_complete),
            None if on_cancel is None else tracer.wrap(on_cancel),
            label,
        )

    patch(Network, "start_transfer", traced_start_transfer)

    execute = TaskTracker.execute
    mapreduce = layer_of_module(execute.__module__)

    def traced_execute(tracker: TaskTracker, attempt: Any) -> None:
        counts["mapreduce.attempts"] += 1
        if attempt.source_node is not None:
            counts["mapreduce.remote_fetches"] += 1
        tracer.span(mapreduce, execute, tracker, attempt)

    patch(TaskTracker, "execute", traced_execute)

    bus_init = EventBus.__init__

    def traced_bus_init(bus: EventBus) -> None:
        bus_init(bus)
        bus.set_dispatch_interceptor(tracer.intercept)

    patch(EventBus, "__init__", traced_bus_init)

    def undo() -> None:
        for cls, name, original in reversed(saved):
            setattr(cls, name, original)

    return undo
