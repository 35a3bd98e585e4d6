"""Unused-code rules (U-family, beside the engine's U001).

A deletion that strands an import leaves a name that nothing reads; the
``lint`` job's ruff F401 catches it, but only where ruff is installed.
This rule is the stdlib half of that check, so a tree without ruff still
sees stranded imports before they reach CI.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Set

from repro.devtools.simlint.diagnostics import Finding
from repro.devtools.simlint.registry import ModuleContext, ModuleRule, register

#: ``# noqa`` (every code) or ``# noqa: F401[, ...]``, as ruff reads it.
_NOQA_RE = re.compile(r"#\s*noqa(?::\s*([A-Za-z0-9,\s]+))?", re.IGNORECASE)


def _noqa_f401(comment: str) -> bool:
    match = _NOQA_RE.search(comment)
    if match is None:
        return False
    codes = match.group(1)
    return codes is None or "F401" in {code.strip().upper() for code in codes.split(",")}


def _used_names(module: ModuleContext) -> Set[str]:
    """Every name the module reads: loads (attribute roots included),
    ``__all__`` entries, and names inside strings that parse as an
    expression (string annotations such as ``Optional["TaskTracker"]``)."""
    used: Set[str] = set()
    for node in module.nodes:
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expression = ast.parse(node.value.strip(), mode="eval")
            except (SyntaxError, ValueError):  # prose; ValueError: a NUL byte
                continue
            used.update(n.id for n in ast.walk(expression) if isinstance(n, ast.Name))
    used.update(_exported(module))
    return used


def _exported(module: ModuleContext) -> Set[str]:
    """The string entries of a module-level ``__all__ = [...]``."""
    exported: Set[str] = set()
    for node in module.tree.body:
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            exported.update(
                elt.value
                for elt in node.value.elts
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            )
    return exported


@register
class UnusedImport(ModuleRule):
    """U002: an imported name the module never reads."""

    code = "U002"
    summary = "unused import (honours __all__, string annotations and # noqa: F401)"

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        used = _used_names(module)
        for node in module.nodes:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                # ``import a.b`` binds ``a``; an alias binds itself.
                bound = alias.asname or alias.name.split(".")[0]
                if bound in used:
                    continue
                if _noqa_f401(module.comments.get(alias.lineno, "")):
                    continue
                yield Finding(
                    alias.lineno,
                    alias.col_offset,
                    f"{alias.name!r} imported but unused; delete the import "
                    "(or list the name in __all__ to re-export it)",
                )
