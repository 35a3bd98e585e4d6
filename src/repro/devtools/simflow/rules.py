"""The F-rule family: flow hazards over effect sets and the bus graph.

================  ==============================================================
F001              cross-phase write-after-read in one dispatch
F002              handler publishes an event consumed at an earlier phase
F003              RNG draw on a declared draw-free path / literal-seeded stream
F004              closure or bound method shipped to a process-pool fan-out
================  ==============================================================

Exemptions are part of the contract the rules enforce, not loopholes:

* **F001** skips readers in the ``ACCOUNTING`` phase. The phase's
  documented job is to "see the pre-reaction state" — later phases
  mutating what it read is the architecture, not a hazard.
* **F001** also ignores the engine's scheduling bookkeeping:
  ``EventHandle._cancelled`` and ``EventHandle._sim`` (one per handle:
  its cancel state, and its back-reference to the simulator, which a
  cancel drops) and ``Simulator._cancelled_in_heap`` (a heap-hygiene
  counter). Only the engine's own ``cancel()`` and heap compaction read
  them; no handler reads a handle's cancel state or owner. Events pop
  in ``(time, seq)`` order however the heap is kept, so what a
  later-phase handler cancels cannot change what an earlier-phase
  handler observed.
* **F002** skips events whose docstring carries ``dispatch-root``: a
  publish starts a *new* dispatch whose phase cycle restarts, and some
  events (the detector belief events) are deliberately published from
  late-phase handlers. The marker makes that intent reviewable.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, NamedTuple, Optional, Set, Tuple

from repro.devtools.simflow.effects import DYNAMIC_PUBLISH
from repro.devtools.simlint.busgraph import BusGraph, SubscribeSite
from repro.devtools.simlint.diagnostics import Finding
from repro.devtools.simlint.model import Corpus, terminal
from repro.devtools.simlint.registry import ModuleContext, ModuleRule, ProjectRule, register

#: Fallback phase order, used only when the corpus does not define the
#: ``Phase`` enum (e.g. minimal fixture corpora).
_DEFAULT_PHASES = {
    "ACCOUNTING": 0,
    "STORAGE": 1,
    "COMPUTE": 2,
    "NETWORK": 3,
    "DETECTION": 4,
    "SCHEDULING": 5,
}

#: Engine scheduling bookkeeping F001 ignores (see module docstring).
ENGINE_BOOKKEEPING = frozenset(
    {"EventHandle._cancelled", "EventHandle._sim", "Simulator._cancelled_in_heap"}
)

#: Docstring marker exempting an event from F002 (see module docstring).
DISPATCH_ROOT_MARKER = "dispatch-root"


def _phase_order(corpus: Corpus) -> Dict[str, int]:
    """Phase name -> rank, read from the corpus's ``Phase`` enum."""
    info = corpus.classes.get("Phase")
    if info is None:
        return dict(_DEFAULT_PHASES)
    order: Dict[str, int] = {}
    for item in info.node.body:
        if (
            isinstance(item, ast.Assign)
            and len(item.targets) == 1
            and isinstance(item.targets[0], ast.Name)
            and isinstance(item.value, ast.Constant)
            and isinstance(item.value.value, int)
        ):
            order[item.targets[0].id] = item.value.value
    return order or dict(_DEFAULT_PHASES)


def _resolved_sites(
    graph: BusGraph, phases: Dict[str, int]
) -> List[Tuple[SubscribeSite, int]]:
    """Subscribe sites with event, owner and a known phase rank."""
    sites: List[Tuple[SubscribeSite, int]] = []
    for site in graph.subscribers:
        if site.event is None or site.owner_class is None or not site.handler:
            continue
        rank = phases.get(site.phase)
        if rank is None:
            continue
        sites.append((site, rank))
    return sites


def _fields_preview(fields: Set[str], limit: int = 3) -> str:
    ordered = sorted(fields)
    if len(ordered) > limit:
        return ", ".join(ordered[:limit]) + f", … ({len(ordered)} fields)"
    return ", ".join(ordered)


@register
class CrossPhaseWriteAfterRead(ProjectRule):
    """F001: a later-phase handler mutates state an earlier one read."""

    code = "F001"
    summary = "cross-phase write-after-read hazard in one dispatch"

    def check_project(self, corpus: Corpus) -> Iterator[Tuple[str, Finding]]:
        index = corpus.effects
        phases = _phase_order(corpus)
        accounting = phases.get("ACCOUNTING", 0)
        by_event: Dict[str, List[Tuple[SubscribeSite, int]]] = {}
        for site, rank in _resolved_sites(corpus.graph, phases):
            by_event.setdefault(site.event or "", []).append((site, rank))
        reported: Set[Tuple[str, str, str, str, str]] = set()
        for event in sorted(by_event):
            entries = by_event[event]
            for reader, reader_rank in entries:
                if reader_rank == accounting:
                    continue  # ACCOUNTING reads the pre-reaction state by contract
                reader_eff = index.lookup(reader.owner_class or "", reader.handler)
                if reader_eff is None or not reader_eff.reads:
                    continue
                for writer, writer_rank in entries:
                    if writer_rank <= reader_rank:
                        continue
                    if (writer.owner_class, writer.handler) == (
                        reader.owner_class,
                        reader.handler,
                    ):
                        continue
                    writer_eff = index.lookup(writer.owner_class or "", writer.handler)
                    if writer_eff is None:
                        continue
                    conflict = (writer_eff.writes & reader_eff.reads) - ENGINE_BOOKKEEPING
                    if not conflict:
                        continue
                    dedup = (
                        event,
                        f"{reader.owner_class}.{reader.handler}",
                        f"{writer.owner_class}.{writer.handler}",
                        reader.phase,
                        writer.phase,
                    )
                    if dedup in reported:
                        continue
                    reported.add(dedup)
                    yield (
                        writer.module,
                        Finding(
                            writer.line,
                            writer.col,
                            f"{event} dispatch: {writer.owner_class}."
                            f"{writer.handler} (phase {writer.phase}) writes "
                            f"{_fields_preview(conflict)} read by "
                            f"{reader.owner_class}.{reader.handler} (phase "
                            f"{reader.phase}) earlier in the same dispatch",
                        ),
                    )


@register
class EarlierPhasePublish(ProjectRule):
    """F002: publish whose subscribers run before the publishing handler."""

    code = "F002"
    summary = "handler publishes an event subscribed at an earlier phase"

    def check_project(self, corpus: Corpus) -> Iterator[Tuple[str, Finding]]:
        index = corpus.effects
        graph = corpus.graph
        sites = _resolved_sites(graph, _phase_order(corpus))
        by_event: Dict[str, List[Tuple[SubscribeSite, int]]] = {}
        for site, rank in sites:
            by_event.setdefault(site.event or "", []).append((site, rank))
        reported: Set[Tuple[str, str, str, str]] = set()
        for publisher, publisher_rank in sites:
            effects = index.lookup(publisher.owner_class or "", publisher.handler)
            if effects is None:
                continue
            for event in sorted(effects.publishes):
                if event == DYNAMIC_PUBLISH:
                    continue
                event_def = graph.events.get(event)
                if event_def is not None and DISPATCH_ROOT_MARKER in event_def.doc.lower():
                    continue
                origin = effects.publishes[event]
                for consumer, consumer_rank in by_event.get(event, []):
                    if consumer_rank >= publisher_rank:
                        continue
                    dedup = (
                        f"{publisher.owner_class}.{publisher.handler}",
                        event,
                        f"{consumer.owner_class}.{consumer.handler}",
                        consumer.phase,
                    )
                    if dedup in reported:
                        continue
                    reported.add(dedup)
                    yield (
                        origin.module,
                        Finding(
                            origin.line,
                            origin.col,
                            f"{publisher.owner_class}.{publisher.handler} "
                            f"(phase {publisher.phase}) transitively publishes "
                            f"{event}, consumed by {consumer.owner_class}."
                            f"{consumer.handler} at earlier phase "
                            f"{consumer.phase}; mark {event} as dispatch-root "
                            "in its docstring if the nested phase restart is "
                            "intended",
                        ),
                    )


@register
class RngDiscipline(ProjectRule):
    """F003: draws on declared draw-free paths, or literal-seeded streams."""

    code = "F003"
    summary = "RNG draw on a draws=0 path, or a literal-seeded stream"

    def check_project(self, corpus: Corpus) -> Iterator[Tuple[str, Finding]]:
        index = corpus.effects
        for contract in sorted(index.contracts, key=lambda c: (c.module, c.line)):
            effects = index.closed.get(contract.key)
            if effects is None or not effects.draws:
                continue
            site = effects.draws[0]
            owner, name = contract.key
            yield (
                contract.module,
                Finding(
                    contract.line,
                    0,
                    f"{owner}.{name} is declared draw-free "
                    f"({contract.origin} contract) but draws via "
                    f"{site.detail} at {site.module}:{site.line}"
                    + (f" (+{len(effects.draws) - 1} more)" if len(effects.draws) > 1 else ""),
                ),
            )
        yield from self._literal_seeds(corpus.modules)

    def _literal_seeds(self, modules: List[ModuleContext]) -> Iterator[Tuple[str, Finding]]:
        for module in modules:
            if module.category != "src":
                continue  # tests/benchmarks seed scenario *roots* by design
            if module.path.endswith("util/rng.py"):
                continue  # the stream implementation itself
            for node in module.nodes:
                if (
                    isinstance(node, ast.Call)
                    and terminal(node.func) == "RandomSource"
                    and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, int)
                ):
                    yield (
                        module.path,
                        Finding(
                            node.lineno,
                            node.col_offset,
                            "RandomSource seeded with a literal constant; "
                            "derive the stream from the run's root seed via "
                            "substream() so substream discipline holds",
                        ),
                    )


class _PoolScope(NamedTuple):
    """What one function's body binds and ships (see PoolCaptureHazard)."""

    pools: Set[str]
    nested: Set[str]
    #: Pool-method calls: the call, the receiver name and the method.
    ships: List[Tuple[ast.Call, str, str]]


#: Pool-constructor names whose submit/map arguments must be picklable
#: module-level functions.
_POOL_CONSTRUCTORS = {"ProcessPoolExecutor", "SweepExecutor"}
#: Pool methods that ship their first argument to worker processes.
_POOL_SHIP_METHODS = {"submit", "map"}


@register
class PoolCaptureHazard(ModuleRule):
    """F004: closures/bound methods shipped to process-pool fan-out.

    A lambda, a nested ``def`` (it closes over the enclosing frame), or a
    bound method (it pickles the whole instance, sharing no mutation back)
    passed to ``ProcessPoolExecutor.submit/map`` either fails to pickle or
    silently diverges from the parent process. The sweep fan-out idiom
    is a module-level function plus an explicit spec argument.
    """

    code = "F004"
    summary = "closure or bound method shipped to a process-pool fan-out"

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        # Pools are bound from a constructor call or an annotation naming
        # one; a module with neither has nothing to check.
        if not any(
            self._is_pool_expr(node)
            or (isinstance(node, ast.AnnAssign) and terminal(node.annotation) in _POOL_CONSTRUCTORS)
            for node in module.nodes
        ):
            return
        # One walk: a node counts toward every function enclosing it, so
        # a function's scope covers its nested functions too.
        scopes: List[_PoolScope] = []
        todo: List[Tuple[ast.AST, Tuple[_PoolScope, ...]]] = [(module.tree, ())]
        while todo:
            node, enclosing = todo.pop()
            inner = enclosing
            pool: Optional[str] = None
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for scope in enclosing:
                    scope.nested.add(node.name)
                scopes.append(_PoolScope(set(), set(), []))
                inner = enclosing + (scopes[-1],)
            elif isinstance(node, ast.withitem) and node.optional_vars is not None:
                if self._is_pool_expr(node.context_expr) and isinstance(
                    node.optional_vars, ast.Name
                ):
                    pool = node.optional_vars.id
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                if self._is_pool_expr(node.value) and isinstance(node.targets[0], ast.Name):
                    pool = node.targets[0].id
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                if terminal(node.annotation) in _POOL_CONSTRUCTORS:
                    pool = node.target.id
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _POOL_SHIP_METHODS
                and isinstance(node.func.value, ast.Name)
                and node.args
            ):
                for scope in enclosing:
                    scope.ships.append((node, node.func.value.id, node.func.attr))
            if pool is not None:
                for scope in enclosing:
                    scope.pools.add(pool)
            todo.extend((child, inner) for child in ast.iter_child_nodes(node))
        for scope in scopes:
            for node, pool_name, method in scope.ships:
                if pool_name not in scope.pools:
                    continue
                problem = self._shipped_problem(node.args[0], scope.nested)
                if problem is not None:
                    yield Finding(
                        node.lineno,
                        node.col_offset,
                        f"process-pool {method}() ships {problem}; pass a "
                        "module-level function (share-nothing, picklable) instead",
                    )

    def _is_pool_expr(self, expr: ast.AST) -> bool:
        return isinstance(expr, ast.Call) and terminal(expr.func) in _POOL_CONSTRUCTORS

    def _shipped_problem(self, fn: ast.AST, nested: Set[str]) -> Optional[str]:
        if isinstance(fn, ast.Lambda):
            return "a lambda (unpicklable closure)"
        if isinstance(fn, ast.Name) and fn.id in nested:
            return f"nested function {fn.id!r} (closes over the enclosing frame)"
        if isinstance(fn, ast.Attribute):
            return (
                f"bound method {ast.unparse(fn)!r} (pickles the whole instance; "
                "worker-side mutation is silently dropped)"
            )
        if isinstance(fn, ast.Call) and terminal(fn.func) == "partial" and fn.args:
            return self._shipped_problem(fn.args[0], nested)
        return None


__all__ = [
    "DISPATCH_ROOT_MARKER",
    "CrossPhaseWriteAfterRead",
    "EarlierPhasePublish",
    "RngDiscipline",
    "PoolCaptureHazard",
]
