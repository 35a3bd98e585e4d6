"""Determinism rules (D-family).

Everything the evaluation rests on — golden-seed pins, the parallel
sweep's run cache, the invariant auditor's byte-identical trajectories —
assumes a run is a pure function of its config and seed. These rules
reject the ways that assumption silently breaks: ambient randomness,
wall-clock reads, unordered-set iteration, float equality on simulated
times, and mutable defaults shared across calls.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Set, Tuple

from repro.devtools.simlint.diagnostics import Finding
from repro.devtools.simlint.model import dotted
from repro.devtools.simlint.registry import ModuleContext, ModuleRule, register


def _import_aliases(module: ModuleContext) -> Tuple[Dict[str, str], Dict[str, str]]:
    """(module aliases, from-imported names) -> canonical dotted names."""
    modules: Dict[str, str] = {}
    names: Dict[str, str] = {}
    for node in module.nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                modules[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
                if alias.asname:
                    modules[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                names[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return modules, names


def _canonical_call_name(
    node: ast.Call, modules: Dict[str, str], names: Dict[str, str]
) -> Optional[str]:
    """Resolve a call's function to a canonical dotted name, if static."""
    name = dotted(node.func)
    if name is None:
        return None
    head, _, rest = name.partition(".")
    if head in names:
        resolved = names[head]
        return f"{resolved}.{rest}" if rest else resolved
    if head in modules:
        resolved = modules[head]
        return f"{resolved}.{rest}" if rest else resolved
    return name


#: random-module functions that mutate/read the hidden global generator.
_GLOBAL_RANDOM_FNS = {
    "random", "uniform", "randint", "randrange", "choice", "choices",
    "sample", "shuffle", "seed", "getrandbits", "betavariate",
    "expovariate", "gammavariate", "gauss", "lognormvariate",
    "normalvariate", "paretovariate", "triangular", "vonmisesvariate",
    "weibullvariate", "random_bytes", "binomialvariate",
}


@register
class UnseededRandom(ModuleRule):
    """D001: ambient RNG instead of a seeded ``util.rng`` stream."""

    code = "D001"
    summary = "unseeded RNG (random.* / numpy.random global state)"

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        modules, names = _import_aliases(module)
        for node in module.nodes:
            if not isinstance(node, ast.Call):
                continue
            name = _canonical_call_name(node, modules, names)
            if name is None:
                continue
            message: Optional[str] = None
            if name.startswith("random."):
                attr = name.split(".", 1)[1]
                if attr in _GLOBAL_RANDOM_FNS:
                    message = (
                        f"call to global-state random.{attr}; "
                        "derive a repro.util.rng RandomSource stream instead"
                    )
                elif attr in {"Random", "SystemRandom"} and not node.args:
                    message = (
                        f"random.{attr}() without an explicit seed; "
                        "seed it from a RandomSource-derived value"
                    )
            elif name.startswith(("numpy.random.", "np.random.")):
                attr = name.rsplit(".", 1)[1]
                if attr in {"default_rng", "Generator", "SeedSequence", "RandomState"}:
                    if not node.args and not node.keywords:
                        message = (
                            f"numpy.random.{attr}() without an explicit seed; "
                            "seed it from a RandomSource-derived value"
                        )
                else:
                    message = (
                        f"call to numpy.random.{attr} global state; "
                        "use a seeded numpy Generator or a RandomSource stream"
                    )
            if message is not None:
                yield Finding(node.lineno, node.col_offset, message)


#: Canonical dotted names that read the host's wall clock.
_WALL_CLOCK = {
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns", "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}
#: Suffixes matching `from datetime import datetime; datetime.now()`.
_WALL_CLOCK_SUFFIXES = ("datetime.now", "datetime.utcnow", "datetime.today", "date.today")


@register
class WallClock(ModuleRule):
    """D002: wall-clock reads outside benchmarks/ and tools/."""

    code = "D002"
    summary = "wall-clock call in simulation code (use Simulator.now)"

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if module.category in {"benchmarks", "tools"}:
            return  # timing harnesses measure real elapsed time by design
        modules, names = _import_aliases(module)
        for node in module.nodes:
            if not isinstance(node, ast.Call):
                continue
            name = _canonical_call_name(node, modules, names)
            if name is None:
                continue
            if name in _WALL_CLOCK or any(name.endswith(s) for s in _WALL_CLOCK_SUFFIXES):
                yield Finding(
                    node.lineno,
                    node.col_offset,
                    f"wall-clock call {name}; simulated time must come from "
                    "Simulator.now (benchmarks/ and tools/ are exempt)",
                )


_SET_METHODS = {"union", "intersection", "difference", "symmetric_difference"}
#: Calls whose result is order-insensitive, so consuming a set (directly
#: or through a generator expression) is fine.
_ORDER_SAFE_CALLS = {
    "sorted", "len", "sum", "min", "max", "any", "all", "set", "frozenset",
}
#: Calls that materialise iteration order from their first argument.
_ORDER_SENSITIVE_CALLS = {"list", "tuple", "iter", "enumerate", "reversed"}


def _is_set_expr(node: ast.AST, set_vars: Set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return node.id in set_vars
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in {"set", "frozenset"}:
            return True
        if isinstance(func, ast.Attribute) and func.attr in _SET_METHODS:
            return _is_set_expr(func.value, set_vars)
        return False
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
    ):
        return _is_set_expr(node.left, set_vars) or _is_set_expr(node.right, set_vars)
    return False


@register
class SetIteration(ModuleRule):
    """D003: iterating an unordered set where order can leak into state."""

    code = "D003"
    summary = "iteration over set/frozenset values (wrap in sorted(...))"

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        # One pass to find locals that are definitely set-typed (assigned a
        # set expression and never reassigned otherwise), one to flag.
        set_vars: Set[str] = set()
        non_set_vars: Set[str] = set()
        for node in module.nodes:
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    if _is_set_expr(node.value, set()):
                        set_vars.add(target.id)
                    else:
                        non_set_vars.add(target.id)
        set_vars -= non_set_vars

        def flag(iter_node: ast.AST) -> Iterator[Finding]:
            if _is_set_expr(iter_node, set_vars):
                yield Finding(
                    iter_node.lineno,
                    iter_node.col_offset,
                    "iteration over an unordered set; wrap in sorted(...) so "
                    "order cannot depend on hashing",
                )

        # A generator expression fed straight into an order-insensitive
        # call (any/sum/min/sorted/…) cannot leak iteration order.
        safe_comprehensions: Set[int] = set()
        for node in module.nodes:
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in _ORDER_SAFE_CALLS
                and node.args
                and isinstance(node.args[0], (ast.GeneratorExp, ast.SetComp))
            ):
                safe_comprehensions.add(id(node.args[0]))

        for node in module.nodes:
            if isinstance(node, (ast.For, ast.AsyncFor)):
                yield from flag(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                if id(node) in safe_comprehensions or isinstance(node, ast.SetComp):
                    continue
                for generator in node.generators:
                    yield from flag(generator.iter)
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Name)
                    and func.id in _ORDER_SENSITIVE_CALLS
                    and node.args
                ):
                    yield from flag(node.args[0])
            elif isinstance(node, ast.Starred):
                yield from flag(node.value)


#: Identifier terminals treated as simulated-time values.
_TIME_NAMES = {"time", "now", "deadline", "timestamp", "at_time", "next_time"}
_TIME_SUFFIXES = ("_time", "_deadline", "_at")


def _is_time_name(node: ast.AST) -> bool:
    if isinstance(node, ast.Attribute):
        terminal: Optional[str] = node.attr
    elif isinstance(node, ast.Name):
        terminal = node.id
    else:
        return False
    if terminal in _TIME_NAMES:
        return True
    return terminal.endswith(_TIME_SUFFIXES)


@register
class FloatTimeEquality(ModuleRule):
    """D004: ``==`` / ``!=`` between simulated times."""

    code = "D004"
    summary = "float equality on simulated times (compare with a tolerance)"

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if module.category == "tests":
            # Exact-equality asserts on times ARE the determinism oracle in
            # tests (golden pins); the hazard is production logic branching
            # on float identity.
            return
        for node in module.nodes:
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:], strict=False):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if any(
                    isinstance(side, ast.Constant)
                    and isinstance(side.value, (str, bool, type(None)))
                    for side in (left, right)
                ):
                    continue
                if _is_time_name(left) or _is_time_name(right):
                    yield Finding(
                        node.lineno,
                        node.col_offset,
                        "float equality on a simulated time; use an explicit "
                        "tolerance (or integer event sequence numbers)",
                    )
                    break


_MUTABLE_CALLS = {
    "list", "dict", "set", "bytearray", "defaultdict", "deque", "Counter", "OrderedDict",
}


def _is_mutable_default(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = dotted(node.func)
        return name is not None and name.rsplit(".", 1)[-1] in _MUTABLE_CALLS
    return False


@register
class MutableDefault(ModuleRule):
    """D005: mutable default argument (state shared across calls)."""

    code = "D005"
    summary = "mutable default argument in a function/handler signature"

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in module.nodes:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            for default in list(args.defaults) + [d for d in args.kw_defaults if d]:
                if _is_mutable_default(default):
                    yield Finding(
                        default.lineno,
                        default.col_offset,
                        "mutable default argument; one instance is shared "
                        "across every call — default to None and allocate "
                        "inside the body",
                    )
