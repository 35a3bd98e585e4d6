"""Lint engine: file discovery, suppression, severity, orchestration.

The engine parses every ``.py`` file under the given paths into
:class:`~repro.devtools.simlint.registry.ModuleContext` objects, builds
one :class:`~repro.devtools.simlint.model.Corpus` over them, runs the
per-module rules and then the project rules (which read the corpus, its
bus graph and its effect index), and applies per-line suppressions and
severity policy.

Suppression syntax (per line)::

    hazard()          # simlint: ignore[D001]
    hazard(); other() # simlint: ignore[D001, F003]
    anything()        # simlint: ignore

A bare ``ignore`` suppresses every code on the line. Each suppressed code
must actually fire: a listed code with no matching diagnostic on that
line is itself reported as ``U001 unused suppression``, so stale
suppressions cannot accumulate. Usage accounting is *select-aware*: under
``--select``, a listed code whose rule did not run this invocation is
neither honoured nor reported unused (a partial run cannot know whether
the suppression is stale), and bare ``ignore`` unused-ness is only judged
on full runs. A code that matches no registered rule is reported as
``U001`` with an "unknown code" message on full runs.

Directories named ``fixtures`` or starting with a dot are skipped during
discovery below each directory passed in (the test corpus under
``tests/devtools/fixtures/`` is intentionally violating), but a file
inside them can still be linted by passing it explicitly.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.devtools.simlint.busgraph import BusGraph
from repro.devtools.simlint.diagnostics import SEVERITY_BY_CATEGORY, Diagnostic, Finding
from repro.devtools.simlint.model import Corpus
from repro.devtools.simlint.registry import (
    ModuleContext,
    all_rules,
    iter_module_rules,
    iter_project_rules,
)

#: Code for a parse failure; always an error.
PARSE_ERROR = "P001"
#: Code for an unused suppression.
UNUSED_SUPPRESSION = "U001"

_SKIP_DIRS = {"__pycache__", "fixtures"}

_SUPPRESS_RE = re.compile(r"#\s*simlint:\s*ignore(?:\[([A-Za-z0-9_,\s]*)\])?")


@dataclass
class LintResult:
    """Everything one lint run produced."""

    diagnostics: List[Diagnostic]
    corpus: Corpus
    #: Display path of each file or directory the run was given, and
    #: whether it is a directory.
    scope: Tuple[Tuple[str, bool], ...] = ()
    #: The codes ``select`` narrowed the run to; None when every code ran.
    select: Optional[FrozenSet[str]] = None

    def covers(self, path: str, code: str) -> bool:
        """Whether this run checked ``code`` on the file at display ``path``.

        A file under a passed directory is covered even if it no longer
        exists (its findings are gone), unless discovery prunes it.
        """
        if self.select is not None and code not in self.select:
            return False
        for given, is_dir in self.scope:
            if not is_dir:
                if path == given:
                    return True
                continue
            try:
                parts = PurePosixPath(path).relative_to(given).parts
            except ValueError:
                continue
            if not _pruned(parts):
                return True
        return False

    @property
    def modules(self) -> List[ModuleContext]:
        return self.corpus.modules

    @property
    def graph(self) -> BusGraph:
        return self.corpus.graph

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "warning"]

    def exit_code(self, strict: bool = False) -> int:
        if self.errors:
            return 1
        if strict and self.warnings:
            return 1
        return 0


def known_codes() -> Set[str]:
    """Every code a run can emit: the registered rules, P001 and U001."""
    return set(all_rules()) | {PARSE_ERROR, UNUSED_SUPPRESSION}


def categorize(path: Path, root: Path) -> str:
    """Path category (controls severity and per-rule exemptions).

    Inside ``root`` the outermost ``src``/``tests``/``benchmarks``/
    ``tools`` directory decides. Outside it the innermost one does, so a
    project's ``src/`` that happens to sit below some ``tests/``
    directory is still source.
    """
    try:
        parts: Iterable[str] = path.resolve().relative_to(root.resolve()).parts
    except ValueError:
        parts = reversed(path.parts)
    for part in parts:
        if part in ("tests", "benchmarks", "tools"):
            return part
        if part == "src":
            return "src"
    return "other"


def discover_files(paths: Iterable[Path]) -> List[Path]:
    """All ``.py`` files under ``paths``, sorted, fixture and dot dirs pruned.

    Only the parts below each passed directory are checked, so a tree
    that itself sits under a dot-directory or a ``fixtures`` directory
    is still linted.
    """
    found: Set[Path] = set()
    for path in paths:
        if path.is_file():
            if path.suffix == ".py":
                found.add(path)
            continue
        if not path.is_dir():
            raise FileNotFoundError(f"no such file or directory: {path}")
        for candidate in sorted(path.rglob("*.py")):
            if _pruned(candidate.relative_to(path).parts):
                continue
            found.add(candidate)
    return sorted(found)


def _pruned(parts: Iterable[str]) -> bool:
    """Whether discovery skips a file at ``parts`` below a passed directory."""
    return any(part in _SKIP_DIRS or part.startswith(".") for part in parts)


def _comments(source: str) -> Dict[int, str]:
    """Line -> comment text, from COMMENT tokens (never string literals).

    Tokenising instead of regex-scanning raw lines means a docstring that
    *describes* the suppression syntax never suppresses anything.
    """
    try:
        return {
            token.start[0]: token.string
            for token in tokenize.generate_tokens(io.StringIO(source).readline)
            if token.type == tokenize.COMMENT
        }
    except tokenize.TokenError:  # pragma: no cover - ast.parse succeeded already
        return {}


def load_module(path: Path, root: Path) -> Tuple[Optional[ModuleContext], Optional[Diagnostic]]:
    """Parse one file; returns (context, parse-error diagnostic)."""
    display = _display_path(path, root)
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return None, Diagnostic(
            path=display,
            line=exc.lineno or 1,
            col=(exc.offset or 1) - 1,
            code=PARSE_ERROR,
            message=f"cannot parse: {exc.msg}",
            severity="error",
        )
    context = ModuleContext(
        path=display,
        category=categorize(path, root),
        tree=tree,
        comments=_comments(source),
    )
    return context, None


def _display_path(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


@dataclass
class _Suppression:
    line: int
    codes: Optional[Tuple[str, ...]]  # None = bare ignore (all codes)
    used: Set[str] = field(default_factory=set)
    bare_used: bool = False


def _scan_suppressions(module: ModuleContext) -> Dict[int, _Suppression]:
    """The module's ``# simlint: ignore`` comments, by line."""
    suppressions: Dict[int, _Suppression] = {}
    for lineno, comment in module.comments.items():
        match = _SUPPRESS_RE.search(comment)
        if match is None:
            continue
        raw = match.group(1)
        codes: Optional[Tuple[str, ...]]
        if raw is None:
            codes = None
        else:
            codes = tuple(
                sorted({code.strip().upper() for code in raw.split(",") if code.strip()})
            )
        suppressions[lineno] = _Suppression(line=lineno, codes=codes)
    return suppressions


def lint_paths(
    paths: Iterable[Path],
    root: Optional[Path] = None,
    select: Optional[Set[str]] = None,
) -> LintResult:
    """Lint every file under ``paths``; the core API behind the CLI.

    ``select`` restricts reporting to the given rule codes (suppression
    and parse diagnostics are always active). ``root`` anchors display
    paths and path categories; defaults to the current directory.
    """
    paths = [Path(p) for p in paths]
    root = Path(root) if root is not None else Path.cwd()
    diagnostics: List[Diagnostic] = []
    modules: List[ModuleContext] = []
    for path in discover_files(paths):
        module, parse_error = load_module(path, root)
        if parse_error is not None:
            diagnostics.append(parse_error)
            continue
        assert module is not None
        modules.append(module)
    corpus = Corpus(modules)
    raw: Dict[str, List[Diagnostic]] = {module.path: [] for module in modules}

    for rule in iter_module_rules():
        if select is not None and rule.code not in select:
            continue
        for module in modules:
            for finding in rule.check(module):
                raw[module.path].append(_stamp(module, rule.code, finding))

    for project_rule in iter_project_rules():
        if select is not None and project_rule.code not in select:
            continue
        for path, finding in project_rule.check_project(corpus):
            module = corpus.by_path.get(path)
            if module is not None:
                raw[path].append(_stamp(module, project_rule.code, finding))

    # The codes whose rules actually ran this invocation: U001 accounting
    # must never judge a suppression for a rule that was deselected.
    known = known_codes()
    active = known if select is None else (known & select) | {PARSE_ERROR, UNUSED_SUPPRESSION}
    for path, found in raw.items():
        diagnostics.extend(
            _apply_suppressions(
                corpus.by_path[path], found, known=known, active=active, full_run=select is None
            )
        )
    diagnostics.sort()
    return LintResult(
        diagnostics=diagnostics,
        corpus=corpus,
        scope=tuple((_display_path(path, root), path.is_dir()) for path in paths),
        select=None if select is None else frozenset(select),
    )


def _stamp(module: ModuleContext, code: str, finding: Finding) -> Diagnostic:
    return Diagnostic(
        path=module.path,
        line=finding.line,
        col=finding.col,
        code=code,
        message=finding.message,
        severity=SEVERITY_BY_CATEGORY.get(module.category, "warning"),
    )


def _apply_suppressions(
    module: ModuleContext,
    diagnostics: List[Diagnostic],
    known: Set[str],
    active: Set[str],
    full_run: bool,
) -> List[Diagnostic]:
    """Filter ``diagnostics`` through the module's suppression comments.

    ``known`` is every code a run could ever emit; ``active`` is the
    subset whose rules ran this invocation. A listed code outside
    ``active`` is left alone entirely — it can neither suppress (its rule
    produced nothing) nor be judged unused (a ``--select`` run has no
    evidence the suppression is stale). Unknown codes and unused bare
    ignores are only reported on full runs, for the same reason.
    """
    suppressions = _scan_suppressions(module)
    kept: List[Diagnostic] = []
    for diagnostic in diagnostics:
        suppression = suppressions.get(diagnostic.line)
        if suppression is None:
            kept.append(diagnostic)
            continue
        if suppression.codes is None:
            suppression.bare_used = True
        elif diagnostic.code in suppression.codes:
            suppression.used.add(diagnostic.code)
        else:
            kept.append(diagnostic)
    severity = SEVERITY_BY_CATEGORY.get(module.category, "warning")

    def unused(lineno: int, message: str) -> Diagnostic:
        return Diagnostic(
            path=module.path,
            line=lineno,
            col=0,
            code=UNUSED_SUPPRESSION,
            message=message,
            severity=severity,
        )

    for lineno in sorted(suppressions):
        suppression = suppressions[lineno]
        if suppression.codes is None:
            if full_run and not suppression.bare_used:
                kept.append(
                    unused(lineno, "unused suppression: no diagnostic fires on this line")
                )
            continue
        for code in suppression.codes:
            if code in suppression.used:
                continue
            if code not in known:
                if full_run:
                    kept.append(
                        unused(
                            lineno,
                            f"suppression for unknown code {code}: "
                            "no registered rule emits it",
                        )
                    )
                continue
            if code not in active:
                continue  # rule deselected this run; no usage evidence
            kept.append(
                unused(
                    lineno,
                    f"unused suppression for {code}: "
                    "no such diagnostic fires on this line",
                )
            )
    return kept


__all__ = [
    "LintResult",
    "PARSE_ERROR",
    "UNUSED_SUPPRESSION",
    "categorize",
    "discover_files",
    "known_codes",
    "lint_paths",
    "load_module",
]
