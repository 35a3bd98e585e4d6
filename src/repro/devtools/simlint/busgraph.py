"""Static extraction of the event-bus publisher/subscriber graph.

The runtime contract lives in :mod:`repro.simulator.events` (the event
types) and ``build_cluster`` (the wiring); this module recovers the same
graph from the AST alone, so review-time tooling can cross-check it
against the live :class:`~repro.simulator.events.EventBus` registry and
reject drift (an event published but never consumed, a handler on an
unregistered class, a signature that no longer matches the dataclass).

Extraction is deliberately syntactic — no imports are executed:

* **Event types** are classes whose base chain reaches a class named
  ``Event`` anywhere in the corpus; dataclass fields (``AnnAssign``
  entries) are collected along the chain.
* **Publish sites** are ``<anything>.publish(EventType(...))`` calls;
  a publish whose argument is not a direct constructor call is recorded
  as *dynamic* (it contributes no graph edge but is counted).
* **Subscribe sites** are ``<anything>.subscribe(EventType, handler,
  phase…)`` calls. When the handler is ``receiver.method`` the owning
  class is the receiver's type under the corpus's local type inference
  (:meth:`~repro.devtools.simlint.model.Corpus.scope`) of the innermost
  enclosing function; ``self`` is the innermost enclosing class.
* **Service registrations** are ``services.register(obj)`` /
  ``registry.register(obj)`` calls, resolved the same way.

The graph serialises to DOT (``to_dot``) and JSON (``to_json``) for the
CI artifact and for byte-stable snapshot tests.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.devtools.simlint.model import FUNCTION_NODES, Corpus, Scope, terminal
from repro.devtools.simlint.registry import ModuleContext

#: register() receivers treated as a ServiceRegistry.
_REGISTRY_NAMES = {"services", "registry"}

#: The definitions enclosing a site, outermost first.
Frames = Tuple[Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef], ...]


@dataclass
class EventDef:
    """One event dataclass, with its (inherited) field schema."""

    name: str
    module: str
    line: int
    bases: List[str]
    #: field name -> annotation source text, in definition order,
    #: including fields inherited from base events.
    fields: Dict[str, str]
    doc: str = ""

    @property
    def observability_only(self) -> bool:
        """Events documented as pure observability need no subscriber."""
        return "observability" in self.doc.lower()


@dataclass(frozen=True)
class PublishSite:
    event: Optional[str]  # None = dynamic publish (argument not a constructor)
    module: str
    line: int
    col: int
    owner: str  # "Class.method" / "function" / "<module>"


@dataclass(frozen=True)
class SubscribeSite:
    event: Optional[str]
    module: str
    line: int
    col: int
    #: Class owning the handler method, when resolvable.
    owner_class: Optional[str]
    #: Handler method/function name, or a source snippet when dynamic.
    handler: str
    phase: str
    keyed: bool


@dataclass(frozen=True)
class RegisterSite:
    class_name: str
    module: str
    line: int


@dataclass
class BusGraph:
    """Everything the contract rules and the ``--graph`` export need."""

    events: Dict[str, EventDef] = field(default_factory=dict)
    publishers: List[PublishSite] = field(default_factory=list)
    subscribers: List[SubscribeSite] = field(default_factory=list)
    registrations: List[RegisterSite] = field(default_factory=list)

    @property
    def registered_classes(self) -> Set[str]:
        return {site.class_name for site in self.registrations}

    def published_events(self) -> Set[str]:
        return {site.event for site in self.publishers if site.event is not None}

    def subscribed_events(self) -> Set[str]:
        return {site.event for site in self.subscribers if site.event is not None}


def _collect_events(corpus: Corpus) -> Dict[str, EventDef]:
    """Classes whose base chain reaches a class named ``Event``."""
    events: Dict[str, EventDef] = {}
    for name, info in corpus.classes.items():
        if "Event" not in corpus.mro(name):
            continue
        events[name] = EventDef(
            name=name,
            module=info.module,
            line=info.line,
            bases=info.bases,
            fields={},
            doc=ast.get_docstring(info.node) or "",
        )
    # Resolve field schemas root-first so inherited fields come first.
    for name in sorted(events, key=lambda n: len(corpus.mro(n))):
        event = events[name]
        merged: Dict[str, str] = {}
        for base in event.bases:
            base_event = events.get(base.rsplit(".", 1)[-1])
            if base_event is not None:
                merged.update(base_event.fields)
        for item in corpus.classes[name].node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                merged[item.target.id] = ast.unparse(item.annotation)
        event.fields = merged
    return events


def extract_graph(corpus: Corpus) -> BusGraph:
    """Build the static bus graph over one corpus."""
    graph = BusGraph(events=_collect_events(corpus))
    for module in corpus.modules:
        _SiteWalker(corpus, graph, module).walk(module.tree.body, ())
    return graph


def _handler_pairs(node: ast.AST) -> List[ast.Tuple]:
    """The (key, handler) tuple shapes inside a subscribe_many pairs arg."""
    if isinstance(node, ast.GeneratorExp):
        if isinstance(node.elt, ast.Tuple) and len(node.elt.elts) == 2:
            return [node.elt]
        return []
    if isinstance(node, (ast.List, ast.Tuple)):
        return [
            elt
            for elt in node.elts
            if isinstance(elt, ast.Tuple) and len(elt.elts) == 2
        ]
    return []


def _is_none(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


class _SiteWalker:
    """Collects one module's publish, subscribe and register sites."""

    def __init__(self, corpus: Corpus, graph: BusGraph, module: ModuleContext) -> None:
        self.corpus = corpus
        self.graph = graph
        self.module = module

    def walk(self, body: List[ast.stmt], frames: Frames) -> None:
        """Visit ``body`` in source order; ``frames`` are the enclosing defs."""
        todo: List[ast.AST] = list(reversed(body))
        while todo:
            node = todo.pop()
            if isinstance(node, (*FUNCTION_NODES, ast.ClassDef)):
                self.walk(node.body, (*frames, node))
                continue
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                self._call(node, node.func, frames)
            todo.extend(reversed(list(ast.iter_child_nodes(node))))

    def _scope(self, frames: Frames) -> Scope:
        """Bindings at a site: its innermost function's scope."""
        if not frames:
            return Scope()  # module level binds nothing
        frame = frames[-1]
        if isinstance(frame, ast.ClassDef):
            return Scope(frame.name)  # a class body binds only ``self``
        owner = next((f for f in reversed(frames) if isinstance(f, ast.ClassDef)), None)
        info = self.corpus.classes.get(owner.name) if owner is not None else None
        return self.corpus.scope(info, frame)

    def _handler(self, node: ast.AST, frames: Frames) -> Tuple[Optional[str], str]:
        """Resolve a handler expression to ``(owner_class, handler_name)``."""
        if isinstance(node, ast.Attribute):
            return self.corpus.expr_class(node.value, self._scope(frames)), node.attr
        if isinstance(node, ast.Name):
            return None, node.id
        return None, ast.unparse(node)

    def _event(self, node: ast.AST) -> Optional[str]:
        name = terminal(node)
        return name if name in self.graph.events else None

    def _call(self, node: ast.Call, func: ast.Attribute, frames: Frames) -> None:
        path = self.module.path
        if func.attr == "publish" and node.args:
            arg = node.args[0]
            owner = ".".join(frame.name for frame in frames) or "<module>"
            self.graph.publishers.append(
                PublishSite(
                    event=self._event(arg.func) if isinstance(arg, ast.Call) else None,
                    module=path,
                    line=node.lineno,
                    col=node.col_offset,
                    owner=owner,
                )
            )
        elif func.attr == "subscribe" and node.args:
            owner_class: Optional[str] = None
            handler = ""
            if len(node.args) >= 2:
                owner_class, handler = self._handler(node.args[1], frames)
            phase = ""
            if len(node.args) >= 3:
                phase = terminal(node.args[2]) or ast.unparse(node.args[2])
            keyed = False
            for keyword in node.keywords:
                if keyword.arg == "phase":
                    phase = terminal(keyword.value) or ast.unparse(keyword.value)
                elif keyword.arg == "key":
                    keyed = not _is_none(keyword.value)
            self.graph.subscribers.append(
                SubscribeSite(
                    event=self._event(node.args[0]),
                    module=path,
                    line=node.lineno,
                    col=node.col_offset,
                    owner_class=owner_class,
                    handler=handler,
                    phase=phase,
                    keyed=keyed,
                )
            )
        elif func.attr == "subscribe_many" and len(node.args) >= 3:
            # Bulk wiring: subscribe_many(EventType, Phase.X, pairs) where the
            # pairs are (key, handler) tuples — typically one generator
            # expression covering every host. Each distinct (key, handler)
            # tuple shape contributes one subscribe site.
            event = self._event(node.args[0])
            phase = terminal(node.args[1]) or ast.unparse(node.args[1])
            for pair in _handler_pairs(node.args[2]):
                key_node, handler_node = pair.elts
                owner_class, handler = self._handler(handler_node, frames)
                self.graph.subscribers.append(
                    SubscribeSite(
                        event=event,
                        module=path,
                        line=pair.lineno,
                        col=pair.col_offset,
                        owner_class=owner_class,
                        handler=handler,
                        phase=phase,
                        keyed=not _is_none(key_node),
                    )
                )
        elif (
            func.attr in ("register", "register_bulk")
            and len(node.args) == 1
            and terminal(func.value) in _REGISTRY_NAMES
        ):
            # register(service) takes one service; register_bulk takes the
            # ``<dict-of-services>.values()`` idiom.
            scope = self._scope(frames)
            if func.attr == "register":
                cls = self.corpus.expr_class(node.args[0], scope)
            else:
                cls = self.corpus.expr_dict_value(node.args[0], scope)
            if cls is not None:
                self.graph.registrations.append(
                    RegisterSite(class_name=cls, module=path, line=node.lineno)
                )


# -- serialisation ---------------------------------------------------------------


def to_json(graph: BusGraph) -> Dict[str, object]:
    """Stable JSON view of the graph (sorted keys, sorted site lists)."""
    return {
        "events": {
            name: {
                "module": event.module,
                "line": event.line,
                "fields": event.fields,
                "observability_only": event.observability_only,
            }
            for name, event in sorted(graph.events.items())
        },
        "publishers": [
            {
                "event": site.event,
                "module": site.module,
                "line": site.line,
                "owner": site.owner,
            }
            for site in sorted(
                graph.publishers, key=lambda s: (s.module, s.line, s.col)
            )
        ],
        "subscribers": [
            {
                "event": site.event,
                "module": site.module,
                "line": site.line,
                "owner_class": site.owner_class,
                "handler": site.handler,
                "phase": site.phase,
                "keyed": site.keyed,
            }
            for site in sorted(
                graph.subscribers, key=lambda s: (s.module, s.line, s.col)
            )
        ],
        "registered_services": sorted(graph.registered_classes),
    }


def to_dot(graph: BusGraph) -> str:
    """Publisher → event → subscriber graph in GraphViz DOT form."""
    lines = [
        "digraph simbus {",
        "  rankdir=LR;",
        '  node [fontname="Helvetica"];',
    ]
    for name in sorted(graph.events):
        shape = "cds" if graph.events[name].observability_only else "box"
        lines.append(f'  "{name}" [shape={shape}, style=filled, fillcolor=lightyellow];')
    publish_edges = sorted(
        {
            (site.owner.split(".")[0], site.event)
            for site in graph.publishers
            if site.event is not None
        }
    )
    subscribe_edges = sorted(
        {
            (site.event, site.owner_class, site.handler, site.phase)
            for site in graph.subscribers
            if site.event is not None and site.owner_class is not None
        }
    )
    actors = {edge[0] for edge in publish_edges} | {
        edge[1] for edge in subscribe_edges if edge[1] is not None
    }
    for actor in sorted(actors):
        lines.append(f'  "{actor}" [shape=ellipse];')
    for owner, event in publish_edges:
        lines.append(f'  "{owner}" -> "{event}";')
    for event, owner_class, handler, phase in subscribe_edges:
        lines.append(f'  "{event}" -> "{owner_class}" [label="{handler} @{phase}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


__all__ = [
    "BusGraph",
    "EventDef",
    "PublishSite",
    "RegisterSite",
    "SubscribeSite",
    "extract_graph",
    "to_dot",
    "to_json",
]
