"""One class-and-scope model per analyzer run.

Every corpus-wide analysis reads the same :class:`Corpus`: the bus-graph
extraction (:mod:`repro.devtools.simlint.busgraph`), the contract rules
and the effect extractor (:mod:`repro.devtools.simflow.effects`). It
holds the parsed modules by path with their top-level functions, the
class table with its one base-chain lookup (:meth:`Corpus.mro`), the
field types harvested from class bodies and ``self.x = ...``
assignments, and the local type inference that resolves a receiver
expression to a corpus class. The bus graph and the effect index are
built from it on first use and cached on it, so a run extracts each
once.

Resolution is syntactic; no imported code runs. Receiver types come from
``self``, annotated parameters (string and ``Optional["X"]`` forms too),
``var = Class(...)`` constructor calls, field types, ``Dict[key, Class]``
value types (kept through ``dict(sorted(d.items()))`` rebuilds and bound
by ``.items()``/``.values()`` loops), and method/property return
annotations.
"""

from __future__ import annotations

import ast
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Set, Tuple, Union

from repro.devtools.simlint.registry import ModuleContext

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.devtools.simflow.effects import EffectIndex
    from repro.devtools.simlint.busgraph import BusGraph

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]
FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)

#: Annotations whose last type argument is the value class.
_MAPPINGS = {"Dict", "dict", "Mapping", "MutableMapping", "defaultdict"}

#: One binding site: (target, assigned value, annotation).
_Assignment = Tuple[ast.AST, Optional[ast.AST], Optional[ast.AST]]


class Sites(NamedTuple):
    """One function's sites, in walk order (see :meth:`Corpus.sites`)."""

    #: Binding sites: single-target, annotated and ``with ... as`` assignments.
    assigns: List[_Assignment]
    #: ``for`` loops, as (target, iterable).
    loops: List[Tuple[ast.AST, ast.AST]]
    #: Attribute nodes with two flags: an augmented-assignment target
    #: (read as well as written), and the container of a subscript store
    #: or delete (written as well as read).
    attributes: List[Tuple[ast.Attribute, bool, bool]]
    #: Call nodes.
    calls: List[ast.Call]


def dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for Name/Attribute chains, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def terminal(node: ast.AST) -> Optional[str]:
    """The last name of a dotted chain (``c`` for ``a.b.c``)."""
    name = dotted(node)
    return name.rsplit(".", 1)[-1] if name else None


def unwrap_optional(annotation: ast.AST) -> ast.AST:
    """Peel ``Optional[X]`` / ``X | None`` down to ``X``."""
    if isinstance(annotation, ast.Subscript) and terminal(annotation.value) == "Optional":
        return annotation.slice
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
        left, right = annotation.left, annotation.right
        if isinstance(right, ast.Constant) and right.value is None:
            return left
        if isinstance(left, ast.Constant) and left.value is None:
            return right
    return annotation


def annotation_class(annotation: Optional[ast.AST]) -> Optional[str]:
    """The class name an annotation denotes, or None.

    String annotations are re-parsed both before and after unwrapping
    ``Optional`` — ``Optional["JobTracker"]`` keeps the quotes on the
    *inner* node, and missing that edge cost real call-graph coverage
    (the runtime crosscheck caught it).
    """
    if annotation is None:
        return None
    for _ in range(2):
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            try:
                annotation = ast.parse(annotation.value, mode="eval").body
            except SyntaxError:  # pragma: no cover - malformed string annotation
                return None
        annotation = unwrap_optional(annotation)
    return terminal(annotation)


@dataclass
class ClassInfo:
    name: str
    module: str
    line: int
    node: ast.ClassDef
    bases: List[str]
    methods: Dict[str, FunctionNode] = field(default_factory=dict)


class Scope:
    """Name -> class bindings for one function (plus dict value types)."""

    def __init__(self, own_class: Optional[str] = None) -> None:
        #: The enclosing class ``self`` refers to, if any.
        self.own_class = own_class
        self.var_class: Dict[str, str] = {}
        self.dict_value: Dict[str, str] = {}
        if own_class is not None:
            self.var_class["self"] = own_class


def _collect_classes(modules: List[ModuleContext]) -> Dict[str, ClassInfo]:
    classes: Dict[str, ClassInfo] = {}
    for module in modules:
        for node in module.nodes:
            if not isinstance(node, ast.ClassDef):
                continue
            bases = [b for b in (dotted(base) for base in node.bases) if b is not None]
            info = ClassInfo(
                name=node.name, module=module.path, line=node.lineno, node=node, bases=bases
            )
            for item in node.body:
                if isinstance(item, FUNCTION_NODES):
                    info.methods[item.name] = item
            # First definition wins; duplicate class names across the
            # corpus are rare and any choice is deterministic.
            classes.setdefault(node.name, info)
    return classes


class Corpus:
    """The parsed modules of one run, their classes and their scopes."""

    def __init__(self, modules: List[ModuleContext]) -> None:
        self.modules = modules
        self.by_path: Dict[str, ModuleContext] = {module.path: module for module in modules}
        #: module path -> top-level function name -> definition.
        self.functions: Dict[str, Dict[str, FunctionNode]] = {
            module.path: {
                node.name: node for node in module.tree.body if isinstance(node, FUNCTION_NODES)
            }
            for module in modules
        }
        self.classes = _collect_classes(modules)
        self._mro: Dict[str, Tuple[str, ...]] = {}
        self._scopes: Dict[int, Scope] = {}
        #: id(function) -> its sites (see :meth:`sites`).
        self._sites_memo: Dict[int, Sites] = {}
        #: class -> field -> inferred class of the field's value.
        self.field_types: Dict[str, Dict[str, str]] = {}
        #: class -> field -> value class of a Dict-typed field.
        self.field_dict_values: Dict[str, Dict[str, str]] = {}
        # Two passes: pass 2 resolves fields assigned from other fields,
        # e.g. ``self._pred = self._namenode.predictor``.
        for _ in range(2):
            for name in sorted(self.classes):
                self._harvest_fields(self.classes[name])

    @cached_property
    def graph(self) -> "BusGraph":
        """The event-bus graph, extracted on first use."""
        from repro.devtools.simlint.busgraph import extract_graph

        return extract_graph(self)

    @cached_property
    def effects(self) -> "EffectIndex":
        """The closed effect sets, extracted on first use."""
        from repro.devtools.simflow.effects import build_index

        return build_index(self)

    # -- the class table --------------------------------------------------------

    def mro(self, name: str) -> Tuple[str, ...]:
        """``name`` and its base classes in lookup order, nearest first.

        Every inheritance question (which class defines a method, what an
        event derives from, a field's owner) is answered from this order.
        Bases are followed depth-first, first base first; a name outside
        the corpus ends its branch, and a cycle is cut at its first repeat.
        """
        cached = self._mro.get(name)
        if cached is None:
            order: List[str] = []
            stack = [name]
            while stack:
                current = stack.pop()
                if current in order:
                    continue
                order.append(current)
                info = self.classes.get(current)
                if info is not None:
                    stack.extend(reversed([base.rsplit(".", 1)[-1] for base in info.bases]))
            cached = self._mro[name] = tuple(order)
        return cached

    def defining_class(self, cls: str, name: str) -> Optional[str]:
        """The class in ``cls``'s base chain that defines method ``name``."""
        for current in self.mro(cls):
            info = self.classes.get(current)
            if info is not None and name in info.methods:
                return current
        return None

    def method(self, cls: str, name: str) -> Optional[FunctionNode]:
        """Method ``name`` of ``cls``, inherited ones included."""
        owner = self.defining_class(cls, name)
        return None if owner is None else self.classes[owner].methods[name]

    def class_of(self, annotation: Optional[ast.AST]) -> Optional[str]:
        """The corpus class an annotation names, or None."""
        name = annotation_class(annotation)
        return name if name in self.classes else None

    def dict_value_class(self, annotation: Optional[ast.AST]) -> Optional[str]:
        """Value class of a ``Dict[key, Class]``-style annotation."""
        if annotation is None:
            return None
        annotation = unwrap_optional(annotation)
        if not isinstance(annotation, ast.Subscript) or terminal(annotation.value) not in _MAPPINGS:
            return None
        if isinstance(annotation.slice, ast.Tuple) and annotation.slice.elts:
            return self.class_of(annotation.slice.elts[-1])
        return None

    def member_class(self, cls: str, attr: str) -> Optional[str]:
        """Class of ``<cls instance>.attr`` — field type or property return."""
        for current in self.mro(cls):
            found = self.field_types.get(current, {}).get(attr)
            if found is not None:
                return found
            info = self.classes.get(current)
            if info is not None and attr in info.methods:
                return self.class_of(info.methods[attr].returns)
        return None

    def _harvest_fields(self, info: ClassInfo) -> None:
        """Bind annotated and ``self.x = ...`` fields."""
        types = self.field_types.setdefault(info.name, {})
        dict_values = self.field_dict_values.setdefault(info.name, {})
        for item in info.node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                self._bind(types, dict_values, item.target.id, None, item.annotation, Scope())
        for method_name in sorted(info.methods):
            method = info.methods[method_name]
            scope = self._parameters(info, method)
            for target, value, annotation in self.sites(method).assigns:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    self._bind(types, dict_values, target.attr, value, annotation, scope)

    def _bind(
        self,
        types: Dict[str, str],
        dict_values: Dict[str, str],
        name: str,
        value: Optional[ast.AST],
        annotation: Optional[ast.AST],
        scope: Scope,
    ) -> None:
        """Record the class and dict value class of ``name``; first binding wins.

        The annotation decides when it names a corpus class; otherwise the
        assigned value is typed in ``scope``.
        """
        cls = self.class_of(annotation)
        if cls is None and value is not None:
            cls = self.expr_class(value, scope)
        if cls is not None:
            types.setdefault(name, cls)
        value_cls = self.dict_value_class(annotation)
        if value_cls is None and value is not None:
            value_cls = self.expr_dict_value(value, scope)
        if value_cls is not None:
            dict_values.setdefault(name, value_cls)

    # -- scopes -----------------------------------------------------------------

    def scope(self, info: Optional[ClassInfo], func: FunctionNode) -> Scope:
        """Bindings in ``func``'s body: ``self``, parameters and locals.

        Nested ``def``/``lambda`` bodies bind into the enclosing function.
        Memoised per function, so the graph and the effect extractor
        share one inference.
        """
        scope = self._scopes.get(id(func))
        if scope is None:
            scope = self._scopes[id(func)] = self._parameters(info, func)
            self._collect_locals(func, scope)
        return scope

    def sites(self, func: FunctionNode) -> Sites:
        """``func``'s binding, attribute and call sites, memoised per function.

        One breadth-first walk of the whole ``def`` serves the field
        harvest, the local scope and the effect extractor. It reaches every
        node after its ancestors: an assignment target marks its
        descendants before they are reached, which is how an augmented
        target and the container of a subscript store get their flags.
        Attribute and call sites keep the walk's order; binding sites are
        then ordered body statement by body statement (first binding
        wins), which is each statement's own breadth-first order.
        """
        sites = self._sites_memo.get(id(func))
        if sites is not None:
            return sites
        sites = Sites([], [], [], [])
        aug_reads: Set[int] = set()
        subscript_writes: Set[int] = set()
        in_targets: Set[int] = set()  # nodes inside an assignment target
        todo = deque([func])
        while todo:
            node = todo.popleft()
            children = list(ast.iter_child_nodes(node))
            todo.extend(children)
            if id(node) in in_targets:
                in_targets.update(map(id, children))
                if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute):
                    subscript_writes.add(id(node.value))
            if isinstance(node, ast.Attribute):
                sites.attributes.append((node, id(node) in aug_reads, id(node) in subscript_writes))
            elif isinstance(node, ast.Call):
                sites.calls.append(node)
            elif isinstance(node, ast.Assign):
                in_targets.update(map(id, node.targets))
                if len(node.targets) == 1:
                    sites.assigns.append((node.targets[0], node.value, None))
            elif isinstance(node, ast.AugAssign):
                target = node.target
                if isinstance(target, ast.Attribute):
                    aug_reads.add(id(target))
                elif isinstance(target, ast.Subscript) and isinstance(target.value, ast.Attribute):
                    subscript_writes.add(id(target.value))
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if isinstance(target, ast.Subscript) and isinstance(
                        target.value, ast.Attribute
                    ):
                        subscript_writes.add(id(target.value))
            elif isinstance(node, ast.AnnAssign):
                sites.assigns.append((node.target, node.value, node.annotation))
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                sites.loops.append((node.target, node.iter))
            elif isinstance(node, ast.withitem) and node.optional_vars is not None:
                sites.assigns.append((node.optional_vars, node.context_expr, None))
        # A binding site's target lies inside one body statement; the
        # statements' start positions index them in source order.
        starts = [(stmt.lineno, stmt.col_offset) for stmt in func.body]

        def statement(site: Tuple[ast.AST, ...]) -> int:
            target = site[0]
            return bisect_right(starts, (target.lineno, target.col_offset))

        sites.assigns.sort(key=statement)
        sites.loops.sort(key=statement)
        self._sites_memo[id(func)] = sites
        return sites

    def _parameters(self, info: Optional[ClassInfo], func: FunctionNode) -> Scope:
        scope = Scope(info.name if info is not None else None)
        args = func.args
        for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
            self._bind(scope.var_class, scope.dict_value, arg.arg, None, arg.annotation, scope)
        return scope

    def _collect_locals(self, func: FunctionNode, scope: Scope) -> None:
        """Order-insensitive local binds (two passes for chains)."""
        sites = self.sites(func)
        for _ in range(2):
            # ``for tracker in d.values()`` / ``for k, tracker in d.items()``
            # bind the loop variable to the dict's value class.
            for target, iterable in sites.loops:
                if not (
                    isinstance(iterable, ast.Call)
                    and isinstance(iterable.func, ast.Attribute)
                    and iterable.func.attr in {"items", "values"}
                ):
                    continue
                value_cls = self.expr_dict_value(iterable.func.value, scope)
                if value_cls is None:
                    continue
                bound: Optional[ast.AST] = None
                if iterable.func.attr == "values" and isinstance(target, ast.Name):
                    bound = target
                elif (
                    iterable.func.attr == "items"
                    and isinstance(target, ast.Tuple)
                    and target.elts
                ):
                    bound = target.elts[-1]
                if isinstance(bound, ast.Name):
                    scope.var_class.setdefault(bound.id, value_cls)
            for target, value, annotation in sites.assigns:
                if isinstance(target, ast.Name):
                    self._bind(
                        scope.var_class, scope.dict_value, target.id, value, annotation, scope
                    )

    # -- expression typing ------------------------------------------------------

    def expr_class(self, expr: ast.AST, scope: Scope) -> Optional[str]:
        """The corpus class ``expr`` evaluates to, if inferable."""
        if isinstance(expr, ast.Name):
            return scope.var_class.get(expr.id)
        if isinstance(expr, ast.Attribute):
            base = self.expr_class(expr.value, scope)
            return None if base is None else self.member_class(base, expr.attr)
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Name):
                return func.id if func.id in self.classes else None
            if isinstance(func, ast.Attribute):
                if func.attr in self.classes and terminal(func) == func.attr:
                    return func.attr  # module-qualified constructor, e.g. events.NodeDown(...)
                if func.attr == "get":
                    value = self.expr_dict_value(func.value, scope)
                    if value is not None:
                        return value  # d.get(k) types like d[k]
                base = self.expr_class(func.value, scope)
                if base is None:
                    return None
                method = self.method(base, func.attr)
                return None if method is None else self.class_of(method.returns)
            return None
        if isinstance(expr, ast.Subscript):
            return self.expr_dict_value(expr.value, scope)
        if isinstance(expr, ast.Await):
            return self.expr_class(expr.value, scope)
        return None

    def expr_dict_value(self, expr: ast.AST, scope: Scope) -> Optional[str]:
        """Value class of the dict ``expr`` evaluates to, if inferable."""
        if isinstance(expr, ast.Name):
            return scope.dict_value.get(expr.id)
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
            and scope.own_class is not None
        ):
            return self.field_dict_values.get(scope.own_class, {}).get(expr.attr)
        if isinstance(expr, ast.Call):
            func = expr.func
            # dict(sorted(trackers.items())) keeps the value type through
            # the rebuild — the registration-order idiom all the masters use.
            if isinstance(func, ast.Name) and func.id in {"dict", "sorted", "list"} and expr.args:
                return self.expr_dict_value(expr.args[0], scope)
            if isinstance(func, ast.Attribute) and func.attr in {"items", "values"}:
                return self.expr_dict_value(func.value, scope)
        return None


__all__ = [
    "ClassInfo",
    "Corpus",
    "FUNCTION_NODES",
    "FunctionNode",
    "Scope",
    "annotation_class",
    "dotted",
    "terminal",
    "unwrap_optional",
]
