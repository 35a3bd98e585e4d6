"""Event-bus contract rules (C-family).

These rules consume the statically-extracted publisher/subscriber graph
(:mod:`repro.devtools.simlint.busgraph`) and reject drift between the
three places the bus contract lives: the event dataclasses, the wiring in
``build_cluster``, and the handler implementations. The same graph is
cross-checked against the *runtime* ``build_cluster()`` registry in
``tests/devtools/test_busgraph_crosscheck.py``, so the static picture can
never silently diverge from what actually executes.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set, Tuple

from repro.devtools.simlint.busgraph import BusGraph
from repro.devtools.simlint.diagnostics import Finding
from repro.devtools.simlint.model import Corpus, FunctionNode, annotation_class, dotted
from repro.devtools.simlint.registry import ProjectRule, register


def _event_roots(graph: BusGraph) -> Set[str]:
    """Abstract event bases (classes some other event inherits from)."""
    roots: Set[str] = set()
    for event in graph.events.values():
        for base in event.bases:
            roots.add(base.rsplit(".", 1)[-1])
    return roots


@register
class OrphanEvent(ProjectRule):
    """C001: an event type with no subscriber, or no publisher."""

    code = "C001"
    summary = "event type published but never subscribed (or vice versa)"

    def check_project(self, corpus: Corpus) -> Iterator[Tuple[str, Finding]]:
        graph = corpus.graph
        roots = _event_roots(graph)
        subscribed = graph.subscribed_events()
        published = graph.published_events()
        for name in sorted(graph.events):
            event = graph.events[name]
            if name in roots:
                continue  # abstract bases are never carried directly
            if name not in subscribed and not event.observability_only:
                yield (
                    event.module,
                    Finding(
                        event.line,
                        0,
                        f"event {name} is never subscribed anywhere in the "
                        "corpus; mark it observability-only in its docstring "
                        "or wire a handler",
                    ),
                )
            if name not in published:
                yield (
                    event.module,
                    Finding(
                        event.line,
                        0,
                        f"event {name} is never published anywhere in the "
                        "corpus; dead event types hide wiring regressions",
                    ),
                )


@register
class UnregisteredSubscriber(ProjectRule):
    """C002: a subscribe() handler owned by a class never registered as a Service."""

    code = "C002"
    summary = "subscribe() from a class not registered as a Service"

    def check_project(self, corpus: Corpus) -> Iterator[Tuple[str, Finding]]:
        graph = corpus.graph
        if not graph.registrations:
            return  # corpus has no registry wiring to check against
        registered = graph.registered_classes
        seen: Set[Tuple[str, int, str]] = set()
        for site in graph.subscribers:
            if site.owner_class is None or site.event is None:
                continue
            if site.owner_class in registered:
                continue
            key = (site.module, site.line, site.owner_class)
            if key in seen:
                continue
            seen.add(key)
            yield (
                site.module,
                Finding(
                    site.line,
                    site.col,
                    f"handler {site.owner_class}.{site.handler} subscribes to "
                    f"{site.event} but {site.owner_class} is never registered "
                    "as a Service — its lifecycle (start/stop) is unmanaged",
                ),
            )


@register
class HalfLifecycle(ProjectRule):
    """C003: a class defining start without stop (or stop without start)."""

    code = "C003"
    summary = "Service defines start without stop (or stop without start)"

    def check_project(self, corpus: Corpus) -> Iterator[Tuple[str, Finding]]:
        for name in sorted(corpus.classes):
            info = corpus.classes[name]
            has_start = "start" in info.methods
            has_stop = "stop" in info.methods
            if has_start == has_stop:
                continue
            # Only plain lifecycle methods count: start(self)/stop(self).
            method = info.methods["start" if has_start else "stop"]
            if len(method.args.args) != 1 or method.args.vararg or method.args.kwonlyargs:
                continue
            present, missing = ("start", "stop") if has_start else ("stop", "start")
            yield (
                info.module,
                Finding(
                    info.line,
                    0,
                    f"class {name} defines {present}() but not {missing}(); "
                    "a half-implemented lifecycle leaks scheduled events at "
                    "teardown (see runtime/services.py)",
                ),
            )


@register
class HandlerSignatureMismatch(ProjectRule):
    """C004: handler signature incompatible with the subscribed event."""

    code = "C004"
    summary = "handler signature mismatch vs the event dataclass"

    def check_project(self, corpus: Corpus) -> Iterator[Tuple[str, Finding]]:
        for site in corpus.graph.subscribers:
            if site.event is None or not site.handler:
                continue
            func: Optional[FunctionNode]
            if site.owner_class is not None:
                func = corpus.method(site.owner_class, site.handler)
            else:
                func = corpus.functions.get(site.module, {}).get(site.handler)
            if func is None:
                continue
            problem = _signature_problem(func, site.owner_class is not None, site.event, corpus)
            if problem is not None:
                owner = f"{site.owner_class}." if site.owner_class else ""
                yield (
                    site.module,
                    Finding(
                        site.line,
                        site.col,
                        f"handler {owner}{site.handler} subscribed for "
                        f"{site.event} {problem}",
                    ),
                )


@register
class UnslottedEvent(ProjectRule):
    """C005: an Event-derived dataclass without ``slots``.

    Events are the highest-volume allocations in a run (one per bus
    dispatch, hundreds of thousands at the 226k-node scale); an event
    carrying a ``__dict__`` roughly doubles its footprint and slows every
    field read. Dataclass events must therefore opt into slots — either
    ``@dataclass(slots=True)`` (3.10+) or an explicit ``__slots__``
    assignment in the class body.
    """

    code = "C005"
    summary = "Event dataclass without slots=True or __slots__"

    def check_project(self, corpus: Corpus) -> Iterator[Tuple[str, Finding]]:
        for name in sorted(corpus.graph.events):
            info = corpus.classes[name]
            if not self._is_dataclass(info.node):
                continue  # hand-rolled classes manage their own layout
            if self._has_slots(info.node):
                continue
            yield (
                info.module,
                Finding(
                    info.line,
                    0,
                    f"event dataclass {name} has no slots: add slots=True to "
                    "@dataclass (or define __slots__) — per-event __dict__ "
                    "allocations dominate dispatch at scale",
                ),
            )

    @staticmethod
    def _is_dataclass(node: ast.ClassDef) -> bool:
        for decorator in node.decorator_list:
            target = decorator.func if isinstance(decorator, ast.Call) else decorator
            if dotted(target) in ("dataclass", "dataclasses.dataclass"):
                return True
        return False

    @staticmethod
    def _has_slots(node: ast.ClassDef) -> bool:
        for decorator in node.decorator_list:
            if not isinstance(decorator, ast.Call):
                continue
            if dotted(decorator.func) not in ("dataclass", "dataclasses.dataclass"):
                continue
            for keyword in decorator.keywords:
                if (
                    keyword.arg == "slots"
                    and isinstance(keyword.value, ast.Constant)
                    and keyword.value.value is True
                ):
                    return True
        for item in node.body:
            targets = []
            if isinstance(item, ast.Assign):
                targets = item.targets
            elif isinstance(item, ast.AnnAssign):
                targets = [item.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    return True
        return False


def _signature_problem(
    func: FunctionNode, is_method: bool, event: str, corpus: Corpus
) -> Optional[str]:
    args = list(func.args.args)
    if is_method:
        args = args[1:]  # drop self
    required = [a for a in args[: len(args) - len(func.args.defaults)]]
    if len(required) > 1:
        extras = ", ".join(a.arg for a in required[1:])
        return (
            f"takes extra required parameter(s) {extras}; bus handlers "
            "receive exactly one event argument"
        )
    if not args and not func.args.vararg:
        return "takes no event parameter; bus handlers receive the event"
    if args:
        declared = annotation_class(args[0].annotation)
        if declared is not None and declared not in corpus.mro(event) and declared != "Event":
            return (
                f"annotates its event parameter as {declared}, which "
                f"is not {event} or one of its bases"
            )
    return None
