"""Rule registry: one class per rule, registered by decoration.

Adding a rule is one class: subclass :class:`ModuleRule` (pure per-file
AST checks) or :class:`ProjectRule` (checks that need the whole corpus —
the event-bus contract and flow rules), give it a ``code``/``summary``,
decorate with :func:`register`, and the engine, the CLI's ``--select``,
``--list-rules`` and the fixture-corpus tests all pick it up
automatically.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Tuple, Type

from repro.devtools.simlint.diagnostics import Finding

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.devtools.simlint.model import Corpus


@dataclass
class ModuleContext:
    """One parsed source file, as rules see it."""

    #: Display path (as reported in diagnostics), using ``/`` separators.
    path: str
    #: Path category: ``src`` / ``tests`` / ``benchmarks`` / ``tools`` / ``other``.
    category: str
    #: Parsed module body.
    tree: ast.Module
    #: Line number -> text of the comment on that line, from one tokenize
    #: pass (suppressions and draw contracts are both read from it).
    comments: Dict[int, str] = field(default_factory=dict)

    @cached_property
    def nodes(self) -> List[ast.AST]:
        """Every node of ``tree`` in ``ast.walk`` order, walked once per run."""
        return list(ast.walk(self.tree))


class Rule:
    """Base class carrying rule identity; never instantiated directly."""

    #: Stable diagnostic code (``D001`` … / ``C001`` … / ``F001`` …).
    code: str = ""
    #: One-line description for ``--list-rules`` and the docs table.
    summary: str = ""


class ModuleRule(Rule):
    """A rule that inspects one module at a time."""

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        raise NotImplementedError


class ProjectRule(Rule):
    """A rule that inspects the whole corpus; yields (module path, finding)."""

    def check_project(self, corpus: "Corpus") -> Iterator[Tuple[str, Finding]]:
        raise NotImplementedError


_RULES: Dict[str, Type[Rule]] = {}


def register(rule_class: Type[Rule]) -> Type[Rule]:
    """Class decorator: add a rule to the global registry."""
    if not rule_class.code:
        raise ValueError(f"{rule_class.__name__} has no code")
    if rule_class.code in _RULES:
        raise ValueError(f"duplicate rule code {rule_class.code}")
    _RULES[rule_class.code] = rule_class
    return rule_class


def all_rules() -> Dict[str, Type[Rule]]:
    """Registered rules, keyed by code, in sorted-code order."""
    # Importing the rules packages populates the registry as a side
    # effect; the flow rules live beside the effect extractor they read.
    from repro.devtools.simflow import rules as flow_rules  # noqa: F401
    from repro.devtools.simlint import rules  # noqa: F401

    return dict(sorted(_RULES.items()))


def iter_module_rules() -> Iterable[ModuleRule]:
    for rule_class in all_rules().values():
        if issubclass(rule_class, ModuleRule):
            yield rule_class()


def iter_project_rules() -> Iterable[ProjectRule]:
    for rule_class in all_rules().values():
        if issubclass(rule_class, ProjectRule):
            yield rule_class()


__all__ = [
    "ModuleContext",
    "Rule",
    "ModuleRule",
    "ProjectRule",
    "register",
    "all_rules",
    "iter_module_rules",
    "iter_project_rules",
]
