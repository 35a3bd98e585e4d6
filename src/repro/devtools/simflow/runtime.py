"""Runtime effect tracing: prove the static model over-approximates reality.

The static side of simflow (:mod:`repro.devtools.simflow.effects`) claims
that for every bus handler it knows a superset of the ``self`` fields the
handler reads and writes. This module checks that claim on live golden
scenarios, the same way ``tests/devtools/test_busgraph_crosscheck.py``
validates the bus graph:

* :meth:`EffectRecorder.install` registers a dispatch interceptor on the
  cluster's :class:`~repro.simulator.events.EventBus` (so the recorder
  knows which handler is on top of the dispatch stack at every moment,
  including nested publishes) and instruments every handler-owning class
  with tracing ``__getattribute__``/``__setattr__`` wrappers.
* While a handler runs, attribute accesses *on the handler's own
  instance* are recorded under ``(owner class, handler name)``. Accesses
  to other objects, and accesses outside any dispatch (deferred lambdas
  the engine runs later, bus taps such as the invariant auditor — even
  when a nested publish fires them mid-handler), are ignored — matching
  the static model's attribution rules.
* Method fetches are dropped (statically they are call edges, and their
  bodies' field effects are already folded in by the closure); property
  and data-field fetches are kept.

:func:`compare_observed_to_static` then asserts observed ⊆ static per
handler, against the callback-linked coverage closure
(:attr:`EffectIndex.covered`) — completion callbacks run synchronously
inside whichever handler triggered them, so the static side must link
stored-callback dispatch to match the runtime attribution. Instrumentation is class-level and reversible; use
:meth:`EffectRecorder.uninstall` (or the context manager form) so other
clusters in the same process are unaffected.
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.devtools.simflow.effects import EffectIndex

#: Observation key: (concrete owner class name, handler method name).
ObservedKey = Tuple[str, str]


def _handler_name(handler: Callable[..., None]) -> str:
    """The handler's name, never via ``repr`` — a bound method's repr
    reprs its instance, whose traced field reads would re-enter the
    recorder and recurse."""
    return getattr(handler, "__name__", None) or f"<{type(handler).__name__}>"


class EffectRecorder:
    """Records per-handler field reads/writes during bus dispatch."""

    def __init__(self) -> None:
        self.reads: Dict[ObservedKey, Set[str]] = {}
        self.writes: Dict[ObservedKey, Set[str]] = {}
        #: (event type name, phase name, handler name) dispatch log.
        self.dispatches: List[Tuple[str, str, str]] = []
        #: Running handlers, innermost last; None while a bus tap runs.
        self._stack: List[Optional[Callable[..., None]]] = []
        self._instrumented: Dict[type, Tuple[Any, Any]] = {}
        self._bus: Optional[Any] = None
        self._taps: List[Callable[..., None]] = []

    # -- lifecycle ---------------------------------------------------------------

    def install(self, bus: Any) -> "EffectRecorder":
        """Intercept ``bus`` dispatch and instrument handler owners."""
        if self._bus is not None:
            raise RuntimeError("EffectRecorder is already installed")
        owners: List[type] = []
        for _event_type, _key, _phase, handler in bus.iter_subscriptions():
            bound_self = getattr(handler, "__self__", None)
            if bound_self is not None:
                owners.append(type(bound_self))
        for cls in sorted(set(owners), key=lambda c: c.__qualname__):
            self._instrument(cls)
        bus.set_dispatch_interceptor(self._dispatch)
        self._taps = list(bus._taps)
        bus._taps[:] = [self._outside_dispatch(tap) for tap in self._taps]
        self._bus = bus
        return self

    def uninstall(self) -> None:
        """Restore every instrumented class and detach from the bus."""
        for cls, (orig_get, orig_set) in list(self._instrumented.items()):
            cls.__getattribute__ = orig_get  # type: ignore[method-assign, assignment]
            cls.__setattr__ = orig_set  # type: ignore[method-assign, assignment]
        self._instrumented.clear()
        if self._bus is not None:
            self._bus.set_dispatch_interceptor(None)
            self._bus._taps[:] = self._taps
            self._bus = None

    def __enter__(self) -> "EffectRecorder":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.uninstall()

    # -- interception ------------------------------------------------------------

    def _dispatch(self, handler: Callable[..., None], phase: Any, event: Any) -> None:
        self.dispatches.append(
            (
                type(event).__name__,
                getattr(phase, "name", str(phase)),
                _handler_name(handler),
            )
        )
        self._stack.append(handler)
        try:
            handler(event)
        finally:
            self._stack.pop()

    def _outside_dispatch(self, tap: Callable[..., None]) -> Callable[..., None]:
        def run(event: Any, phases: Any) -> None:
            self._stack.append(None)
            try:
                tap(event, phases)
            finally:
                self._stack.pop()

        return run

    def _instrument(self, cls: type) -> None:
        if cls in self._instrumented:
            return
        orig_get = cls.__getattribute__
        orig_set = cls.__setattr__
        recorder = self

        def traced_getattribute(obj: object, name: str) -> object:
            recorder._note(obj, name, write=False)
            return orig_get(obj, name)

        def traced_setattr(obj: object, name: str, value: object) -> None:
            recorder._note(obj, name, write=True)
            orig_set(obj, name, value)

        cls.__getattribute__ = traced_getattribute  # type: ignore[method-assign, assignment]
        cls.__setattr__ = traced_setattr  # type: ignore[method-assign, assignment]
        self._instrumented[cls] = (orig_get, orig_set)

    def _note(self, obj: object, name: str, write: bool) -> None:
        stack = self._stack
        if not stack or name.startswith("__"):
            return
        handler = stack[-1]
        if handler is None:
            return  # a bus tap is observing, not a handler acting
        owner = getattr(handler, "__self__", None)
        if owner is None or obj is not owner:
            return  # only the running handler's own instance is attributed
        if not write:
            class_attr = getattr(type(obj), name, None)
            if inspect.isroutine(class_attr):
                return  # method fetch: statically a call edge, not a read
        key: ObservedKey = (type(obj).__name__, _handler_name(handler))
        target = self.writes if write else self.reads
        target.setdefault(key, set()).add(name)


def _own_fields(qualified: Set[str], own: Set[str]) -> Set[str]:
    """Bare field names of the entries qualified by one of ``own``."""
    fields: Set[str] = set()
    for entry in sorted(qualified):
        owner_cls, _, field_name = entry.partition(".")
        if owner_cls in own:
            fields.add(field_name)
    return fields


def compare_observed_to_static(
    recorder: EffectRecorder, index: EffectIndex
) -> List[str]:
    """Violations of observed ⊆ static, one human-readable line each."""
    violations: List[str] = []
    for key in sorted(set(recorder.reads) | set(recorder.writes)):
        cls, handler = key
        effects = index.lookup_covered(cls, handler)
        if effects is None:
            violations.append(f"{cls}.{handler}: handler has no static effect record")
            continue
        own = set(index.corpus.mro(cls))
        extra_reads = recorder.reads.get(key, set()) - _own_fields(effects.reads, own)
        extra_writes = recorder.writes.get(key, set()) - _own_fields(effects.writes, own)
        if extra_reads:
            violations.append(
                f"{cls}.{handler}: observed reads not in static set: "
                + ", ".join(sorted(extra_reads))
            )
        if extra_writes:
            violations.append(
                f"{cls}.{handler}: observed writes not in static set: "
                + ", ".join(sorted(extra_writes))
            )
    return violations


__all__ = ["EffectRecorder", "ObservedKey", "compare_observed_to_static"]
