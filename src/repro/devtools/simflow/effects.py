"""Field-level effect extraction over the parsed corpus.

For every class method and top-level function, this module computes an
:class:`Effects` record — which ``Class.field`` names the code reads and
writes, which event types it publishes, where it draws from a
:class:`~repro.util.rng.RandomSource`, and which other corpus functions
it calls — then closes those records over the call graph so a handler's
effect set includes everything its helpers do.

Two closures are produced. :attr:`EffectIndex.closed` follows direct
call edges only and backs the F rules. :attr:`EffectIndex.covered`
additionally links stored-callback dispatch — invoking a non-method
attribute of a corpus instance (``transfer.on_cancel(transfer)``)
reaches every callable any function registered under that keyword name
(``on_cancel=lambda t: ...``). Name-keyed linkage is too coarse for
hazard rules but is required for the runtime crosscheck's observed ⊆
static claim, because completion callbacks run synchronously inside
whichever handler triggered them.

Extraction is deliberately an *over*-approximation (the runtime
crosscheck in :mod:`repro.devtools.simflow.runtime` asserts observed ⊆
static, so the static side must never under-report):

* Nested ``def``/``lambda`` bodies count toward the enclosing function.
  Handlers schedule deferred work through closures; attributing the
  closure's effects to the scheduler is conservative for hazard rules
  and required for the inline cases (sort keys, filters).
* Fetching a bound method (``self._beat`` without calling it) adds a
  call edge — the reference may be invoked later.
* Mutating calls on a field (``self._queue.append(...)``) count as a
  write of the field as well as a read.

Receiver types come from the run's one type inference,
:meth:`~repro.devtools.simlint.model.Corpus.scope` — the same bindings
:mod:`repro.devtools.simlint.busgraph` resolves handler owners with.

Draw contracts: a ``# simlint: draws=0`` comment on (or directly above)
a ``def``, or a docstring containing a draw-neutrality phrase
("consumes no randomness", "zero-draw", "draw-free", "draw-neutral"),
declares the whole transitive closure of that function draw-free; rule
F003 enforces the declaration.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.devtools.simlint.model import ClassInfo, Corpus, FunctionNode, Scope, terminal
from repro.devtools.simlint.registry import ModuleContext

#: Effect keys are ``(owner, name)``: owner is a class name for methods
#: or ``"<module-path>"`` for top-level functions.
EffectKey = Tuple[str, str]

#: RandomSource methods that consume draws from the stream.
#: ``raw_random`` returns the underlying draw callable, so fetching it is
#: treated as a draw site (the callable draws on every later call).
DRAW_METHODS = frozenset(
    {
        "random",
        "raw_random",
        "uniform",
        "randint",
        "randrange",
        "expovariate",
        "gauss",
        "lognormvariate",
        "choice",
        "sample",
        "shuffle",
        "weighted_choice",
    }
)

#: RandomSource methods that derive child streams without drawing.
DERIVE_METHODS = frozenset({"substream", "derive_seed"})

#: Method names that mutate their receiver in place: a call through a
#: field (``self._queue.append(x)``) writes the field.
MUTATOR_METHODS = frozenset(
    {
        "append",
        "appendleft",
        "add",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "reverse",
        "rotate",
        "setdefault",
        "sort",
        "update",
    }
)

#: Docstring phrases that declare a function draw-free (the rack
#: substitution / placement draw-neutrality contracts from PR 9).
DRAW_FREE_PHRASES = (
    "consumes no randomness",
    "consumes no rng",
    "zero-draw",
    "draw-free",
    "draw-neutral",
)

#: Event published through an expression the extractor cannot resolve to
#: a constructor call; rules treat it as "unknown event".
DYNAMIC_PUBLISH = "<dynamic>"

_DRAWS_ZERO_RE = re.compile(r"#\s*simlint:\s*draws\s*=\s*0\b")


@dataclass(frozen=True)
class DrawSite:
    """One RNG draw, as a reportable location."""

    module: str
    line: int
    col: int
    detail: str  # e.g. "RandomSource.choice"


@dataclass(frozen=True)
class PublishOrigin:
    """Representative source location for one published event type."""

    module: str
    line: int
    col: int


@dataclass
class Effects:
    """What one function does, field-by-field."""

    key: EffectKey
    module: str
    line: int
    reads: Set[str] = field(default_factory=set)
    writes: Set[str] = field(default_factory=set)
    #: event type name -> representative publish site (first seen).
    publishes: Dict[str, PublishOrigin] = field(default_factory=dict)
    draws: List[DrawSite] = field(default_factory=list)
    calls: Set[EffectKey] = field(default_factory=set)
    #: Non-method callable attributes this function invokes on corpus
    #: instances (``transfer.on_cancel(transfer)``): stored-callback
    #: dispatch, resolved against the kwarg-registration registry.
    opaque_calls: Set[str] = field(default_factory=set)

    def merge(self, other: "Effects") -> bool:
        """Fold ``other``'s effects in; True when anything was new."""
        changed = False
        if not other.reads <= self.reads:
            self.reads |= other.reads
            changed = True
        if not other.writes <= self.writes:
            self.writes |= other.writes
            changed = True
        for event, origin in other.publishes.items():
            if event not in self.publishes:
                self.publishes[event] = origin
                changed = True
        known = set(self.draws)
        for site in other.draws:
            if site not in known:
                self.draws.append(site)
                known.add(site)
                changed = True
        if not other.opaque_calls <= self.opaque_calls:
            self.opaque_calls |= other.opaque_calls
            changed = True
        return changed


@dataclass(frozen=True)
class DrawContract:
    """A declared ``draws=0`` obligation on one function."""

    key: EffectKey
    module: str
    line: int
    origin: str  # "comment" or "docstring"


@dataclass
class EffectIndex:
    """Every function's direct and transitive effects, plus contracts."""

    corpus: Corpus
    direct: Dict[EffectKey, Effects] = field(default_factory=dict)
    closed: Dict[EffectKey, Effects] = field(default_factory=dict)
    #: Like ``closed``, but additionally linking stored-callback dispatch
    #: (``transfer.on_cancel(...)``) to every callable registered under
    #: the same keyword name anywhere in the corpus. Name-keyed linkage
    #: is far too coarse for the hazard rules — one completion callback
    #: would smear near-global effect sets over every handler pair — but
    #: it is exactly what soundness of the runtime crosscheck needs:
    #: callbacks run synchronously inside whichever handler triggered
    #: them, so their effects are observed under that handler's key.
    covered: Dict[EffectKey, Effects] = field(default_factory=dict)
    contracts: List[DrawContract] = field(default_factory=list)

    def lookup(self, cls: str, method: str) -> Optional[Effects]:
        """Transitive effects of ``cls.method``, following inheritance."""
        owner = self.corpus.defining_class(cls, method)
        return None if owner is None else self.closed.get((owner, method))

    def lookup_covered(self, cls: str, method: str) -> Optional[Effects]:
        """Like :meth:`lookup` but over the callback-linked closure."""
        owner = self.corpus.defining_class(cls, method)
        return None if owner is None else self.covered.get((owner, method))


class _Extractor:
    """Shared extraction state over one corpus."""

    def __init__(self, corpus: Corpus) -> None:
        self.corpus = corpus
        self.events = corpus.graph.events
        self.index = EffectIndex(corpus=corpus)
        #: kwarg name -> functions that passed a callable reference under
        #: it (``on_cancel=lambda t: ...`` registers the enclosing
        #: function as a possible target of ``<obj>.on_cancel(...)``).
        self._callback_regs: Dict[str, Set[EffectKey]] = {}

    def build(self) -> EffectIndex:
        for module in self.corpus.modules:
            self._extract_module(module)
        self._close()
        return self.index

    # -- effect extraction ------------------------------------------------------

    def _extract_module(self, module: ModuleContext) -> None:
        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                key = (f"<{module.path}>", node.name)
                self._extract_function(key, None, node, module)
            elif isinstance(node, ast.ClassDef):
                info = self.corpus.classes.get(node.name)
                if info is None or info.module != module.path:
                    continue  # shadowed duplicate class name; first wins
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        self._extract_function((node.name, item.name), info, item, module)

    def _extract_function(
        self,
        key: EffectKey,
        info: Optional[ClassInfo],
        func: FunctionNode,
        module: ModuleContext,
    ) -> None:
        effects = Effects(key=key, module=module.path, line=func.lineno)
        scope = self.corpus.scope(info, func)
        sites = self.corpus.sites(func)
        for node, force_read, force_write in sites.attributes:
            self._record_attribute(node, effects, scope, force_read, force_write)
        for call in sites.calls:
            self._record_call(call, effects, scope, module)
        existing = self.index.direct.get(key)
        if existing is not None:
            existing.merge(effects)  # e.g. single-dispatch overloads sharing a name
        else:
            self.index.direct[key] = effects
        self._record_contract(key, func, module)

    def _record_attribute(
        self,
        node: ast.Attribute,
        effects: Effects,
        scope: Scope,
        force_read: bool,
        force_write: bool,
    ) -> None:
        base = self.corpus.expr_class(node.value, scope)
        if base is None:
            return
        qualified = f"{base}.{node.attr}"
        method = self.corpus.method(base, node.attr)
        if isinstance(node.ctx, (ast.Store, ast.Del)):
            effects.writes.add(qualified)
            if force_read:
                effects.reads.add(qualified)
            if method is not None:  # property setter: its body runs on assignment
                effects.calls.add((base, node.attr))
            return
        if method is not None:
            # Bound-method reference (callback/property): follow the body.
            effects.calls.add((base, node.attr))
            if _is_property(method):
                effects.reads.add(qualified)
        else:
            effects.reads.add(qualified)
        if force_write:
            effects.writes.add(qualified)

    def _record_call(
        self,
        node: ast.Call,
        effects: Effects,
        scope: Scope,
        module: ModuleContext,
    ) -> None:
        # Callable references passed as keyword arguments register the
        # enclosing function as a stored-callback target under the kwarg
        # name (lambda bodies fold into the enclosing function already).
        for keyword in node.keywords:
            if keyword.arg is not None and isinstance(
                keyword.value, (ast.Lambda, ast.Attribute, ast.Name)
            ):
                self._callback_regs.setdefault(keyword.arg, set()).add(effects.key)
        func = node.func
        if isinstance(func, ast.Name):
            if func.id in self.corpus.functions.get(module.path, {}):
                effects.calls.add((f"<{module.path}>", func.id))
            return
        if not isinstance(func, ast.Attribute):
            return
        receiver = func.value
        base = self.corpus.expr_class(receiver, scope)
        if func.attr == "publish" and node.args:
            arg = node.args[0]
            event: str = DYNAMIC_PUBLISH
            if isinstance(arg, ast.Call):
                name = terminal(arg.func)
                if name is not None and name in self.events:
                    event = name
            elif isinstance(arg, ast.Name):
                cls = scope.var_class.get(arg.id)
                if cls is not None and cls in self.events:
                    event = cls
            effects.publishes.setdefault(
                event, PublishOrigin(module=module.path, line=node.lineno, col=node.col_offset)
            )
        if base is None:
            return
        if base == "RandomSource":
            if func.attr in DRAW_METHODS:
                effects.draws.append(
                    DrawSite(
                        module=module.path,
                        line=node.lineno,
                        col=node.col_offset,
                        detail=f"RandomSource.{func.attr}",
                    )
                )
            return
        if self.corpus.defining_class(base, func.attr) is not None:
            effects.calls.add((base, func.attr))
        elif func.attr in MUTATOR_METHODS and isinstance(receiver, ast.Attribute):
            receiver_base = self.corpus.expr_class(receiver.value, scope)
            if receiver_base is not None:
                effects.writes.add(f"{receiver_base}.{receiver.attr}")
        else:
            # Invoking a non-method attribute of a corpus instance is
            # stored-callback dispatch; link it to every registration
            # under the same name during closure.
            effects.opaque_calls.add(func.attr)

    def _record_contract(self, key: EffectKey, func: FunctionNode, module: ModuleContext) -> None:
        candidates = {func.lineno, func.lineno - 1}
        candidates.update(d.lineno for d in func.decorator_list)
        origin: Optional[str] = None
        if any(_DRAWS_ZERO_RE.search(module.comments.get(line, "")) for line in candidates):
            origin = "comment"
        else:
            doc = (ast.get_docstring(func) or "").lower()
            if any(phrase in doc for phrase in DRAW_FREE_PHRASES):
                origin = "docstring"
        if origin is not None:
            self.index.contracts.append(
                DrawContract(key=key, module=module.path, line=func.lineno, origin=origin)
            )

    # -- transitive closure -----------------------------------------------------

    def _close(self) -> None:
        self.index.closed = self._fixpoint(link_callbacks=False)
        self.index.covered = self._fixpoint(link_callbacks=True)

    def _fixpoint(self, link_callbacks: bool) -> Dict[EffectKey, Effects]:
        closed: Dict[EffectKey, Effects] = {}
        for key in sorted(self.index.direct):
            direct = self.index.direct[key]
            clone = Effects(key=key, module=direct.module, line=direct.line)
            clone.merge(direct)
            clone.calls = set(direct.calls)
            if link_callbacks:
                for attr in sorted(direct.opaque_calls):
                    clone.calls |= self._callback_regs.get(attr, set())
            closed[key] = clone
        for _ in range(len(closed) + 1):
            changed = False
            for key in sorted(closed):
                record = closed[key]
                for callee in sorted(record.calls):
                    target = self._resolve_callee(callee)
                    if target is None or target == key:
                        continue
                    callee_record = closed.get(target)
                    if callee_record is None:
                        continue
                    if record.merge(callee_record):
                        changed = True
                    if not callee_record.calls <= record.calls:
                        record.calls |= callee_record.calls
                        changed = True
            if not changed:
                break
        return closed

    def _resolve_callee(self, callee: EffectKey) -> Optional[EffectKey]:
        if callee in self.index.direct:
            return callee
        cls, method = callee
        owner = self.corpus.defining_class(cls, method)
        if owner is not None and (owner, method) in self.index.direct:
            return (owner, method)
        return None


def _is_property(method: FunctionNode) -> bool:
    for decorator in method.decorator_list:
        if terminal(decorator) in {"property", "cached_property"} or (
            isinstance(decorator, ast.Attribute) and decorator.attr in {"setter", "getter"}
        ):
            return True
    return False


def build_index(corpus: Corpus) -> EffectIndex:
    """Extract the effect index of one corpus (cached as ``corpus.effects``)."""
    return _Extractor(corpus).build()


def effects_to_json(index: EffectIndex) -> Dict[str, object]:
    """Stable JSON view of the effect index (the CI artifact)."""
    functions = {}
    for key in sorted(index.closed):
        record = index.closed[key]
        owner, name = key
        functions[f"{owner}.{name}"] = {
            "module": record.module,
            "line": record.line,
            "reads": sorted(record.reads),
            "writes": sorted(record.writes),
            "publishes": sorted(record.publishes),
            "draws": [
                {"module": s.module, "line": s.line, "detail": s.detail}
                for s in record.draws
            ],
            "calls": sorted(f"{c}.{m}" for c, m in record.calls),
        }
    return {
        "version": 1,
        "functions": functions,
        "contracts": [
            {
                "function": f"{c.key[0]}.{c.key[1]}",
                "module": c.module,
                "line": c.line,
                "origin": c.origin,
            }
            for c in sorted(index.contracts, key=lambda c: (c.module, c.line))
        ],
    }


__all__ = [
    "DRAW_METHODS",
    "DERIVE_METHODS",
    "DYNAMIC_PUBLISH",
    "DrawContract",
    "DrawSite",
    "EffectIndex",
    "EffectKey",
    "Effects",
    "build_index",
    "effects_to_json",
]
