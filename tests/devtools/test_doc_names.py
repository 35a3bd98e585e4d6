"""The docs name only code that exists.

DESIGN.md, README.md, EXPERIMENTS.md and the verify notes cite code by
name in backticks. Outside fenced code blocks, every cited name must resolve
against the tree (``src``, ``tests``, ``bench``, ``benchmarks``, ``tools``
and ``examples``; the deliberately violating simlint fixtures excluded):

* ``Class.member``, where ``Class`` is a class the tree defines, must be a
  member of it or of a base the tree defines: a method, property,
  class-level field or ``self.`` attribute;
* ``module.attr``, where the tree imports ``module`` from the standard
  library, must be an attribute of that module;
* a bare CamelCase, snake_case, ``_private`` or UPPER_CASE name must occur
  in the tree's code: as a definition, parameter, keyword, import,
  reference, or an identifier-like string (environment variables, metric
  names); builtins and standard-library module names resolve too;
* a ``--flag`` must be a flag some script declares;
* a ``*.py`` name must be a file of the repository.

Placeholders go in angle brackets (``<Class>.<field>``, ``<code>_bad.py``):
a bracketed word is not a name, and in a file name it matches anything.
Math-style names whose parts are single letters (``a_i``, ``s_b``) are
not checked.

DESIGN.md §2's module tree is a fenced block, so the span rules skip it;
it is checked on its own. Every file it lists must exist, every module
under ``src/repro`` (package ``__init__.py`` files aside) must be listed,
and every capitalised word on a tree line must be a name the code uses,
so the tree's prose stays lower case.

A name deleted from the code then fails here in the change that deletes
it, instead of lingering in the prose; the history of deleted code
belongs in CHANGES.md.
"""

from __future__ import annotations

import ast
import builtins
import fnmatch
import importlib
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Set

import pytest

ROOT = Path(__file__).resolve().parents[2]
DOCS = ("DESIGN.md", "README.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md")
CODE_DIRS = ("src", "tests", "bench", "benchmarks", "tools", "examples")
FIXTURES = ROOT / "tests" / "devtools" / "fixtures"
#: This file quotes stale names on purpose; its strings are not the tree's.
SELF = Path(__file__).resolve()

_FENCE = re.compile(r"^\s*(```|~~~)")
#: An inline code span may wrap onto the next line, but not past a blank one.
_SPAN = re.compile(r"`((?:[^`\n]|\n(?!\s*\n))+)`")
_PLACEHOLDER = re.compile(r"<[^<>`]*>")
_PY_FILE = re.compile(r"(?:[\w./-]|<[^<>`]*>)*\w\.py\b")
_OTHER_FILE = re.compile(
    r"[\w./-]*\w\.(?:json|jsonl|md|txt|toml|yml|yaml|dot|sarif|csv|cfg|sh)\b"
)
_FLAG = re.compile(r"(?<![\w-])--[a-z0-9][a-z0-9-]*")
#: A dotted name; hyphenated words (``sim-fig5``, ``tor-up``) are not code.
_DOTTED = re.compile(r"(?<![\w.-])[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*(?![\w-])")
_CHECKED_WORD = re.compile(
    r"[A-Z][A-Za-z0-9]*[a-z][A-Za-z0-9]*"  # CamelCase
    r"|_*[a-z][a-z0-9]*(?:_+[a-z0-9]+)+_*"  # snake_case
    r"|_+[a-z][a-z0-9]*_*"  # _private
    r"|_*[A-Z][A-Z0-9]*(?:_+[A-Z0-9]+)+"  # UPPER_CASE
)
_IDENT_STRING = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


@dataclass
class Corpus:
    """What the tree's code defines and mentions."""

    #: Every identifier the code mentions, plus module and package names.
    words: Set[str] = field(default_factory=set)
    #: Class name -> members defined on it, and its base names.
    members: Dict[str, Set[str]] = field(default_factory=dict)
    bases: Dict[str, Set[str]] = field(default_factory=dict)
    #: Standard-library modules some file imports.
    stdlib_imports: Set[str] = field(default_factory=set)
    #: ``--flag`` strings the code declares.
    flags: Set[str] = field(default_factory=set)
    #: Every file path, relative to the root, with forward slashes.
    files: Set[str] = field(default_factory=set)

    def class_members(self, name: str) -> Set[str]:
        """Members of ``name`` and of every base the tree defines."""
        seen: Set[str] = set()
        found: Set[str] = set()
        pending = [name]
        while pending:
            current = pending.pop()
            if current in seen or current not in self.members:
                continue
            seen.add(current)
            found |= self.members[current]
            pending.extend(self.bases[current])
        return found


def _python_files() -> Iterator[Path]:
    for top in CODE_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            if FIXTURES not in path.parents and path != SELF:
                yield path


def _add_class(corpus: Corpus, node: ast.ClassDef) -> None:
    members = corpus.members.setdefault(node.name, set())
    bases = corpus.bases.setdefault(node.name, set())
    for base in node.bases:
        if isinstance(base, ast.Name):
            bases.add(base.id)
        elif isinstance(base, ast.Attribute):
            bases.add(base.attr)
    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            members.add(item.name)
        elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            members.add(item.target.id)
        elif isinstance(item, ast.Assign):
            for target in item.targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        members.add(sub.id)
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Attribute)
            and isinstance(sub.ctx, ast.Store)
            and isinstance(sub.value, ast.Name)
            and sub.value.id in ("self", "cls")
        ):
            members.add(sub.attr)


def _add_file(corpus: Corpus, path: Path) -> None:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    words = corpus.words
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            words.add(node.name)
            _add_class(corpus, node)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            words.add(node.name)
        elif isinstance(node, ast.arg):
            words.add(node.arg)
        elif isinstance(node, ast.keyword) and node.arg is not None:
            words.add(node.arg)
        elif isinstance(node, ast.Name):
            words.add(node.id)
        elif isinstance(node, ast.Attribute):
            words.add(node.attr)
        elif isinstance(node, ast.alias):
            words.update((node.asname or node.name).split("."))
            words.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            value = node.value
            if _IDENT_STRING.fullmatch(value):
                words.update(value.split("."))
            elif _FLAG.fullmatch(value):
                corpus.flags.add(value)
        if isinstance(node, ast.Import):
            heads = [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            heads = [node.module.split(".")[0]]
        else:
            continue
        corpus.stdlib_imports.update(h for h in heads if h in sys.stdlib_module_names)
    relative = path.relative_to(ROOT)
    words.update(relative.with_suffix("").parts)


def build_corpus() -> Corpus:
    corpus = Corpus()
    for path in _python_files():
        _add_file(corpus, path)
    for path in ROOT.rglob("*"):
        if path.is_file() and ".git" not in path.relative_to(ROOT).parts:
            corpus.files.add(path.relative_to(ROOT).as_posix())
    return corpus


def doc_spans(text: str) -> List[str]:
    """Inline code spans outside fenced code blocks."""
    prose: List[str] = []
    fenced = False
    for line in text.splitlines():
        if _FENCE.match(line):
            fenced = not fenced
            prose.append("")  # a fence also ends the paragraph before it
        else:
            prose.append("" if fenced else line)
    return [span.replace("\n", " ") for span in _SPAN.findall("\n".join(prose))]


def _file_exists(corpus: Corpus, name: str) -> bool:
    pattern = _PLACEHOLDER.sub("*", name).removeprefix("./")
    return any(
        fnmatch.fnmatchcase(path, pattern) or fnmatch.fnmatchcase(path, "*/" + pattern)
        for path in corpus.files
    )


def _stdlib_has(module: str, attr: str) -> bool:
    try:
        return hasattr(importlib.import_module(module), attr)
    except ImportError:
        return False


def _is_checked(word: str) -> bool:
    if not _CHECKED_WORD.fullmatch(word):
        return False
    # a_i, s_b: subscripted math variables, not code names.
    return any(len(part) > 1 for part in word.split("_"))


def _word_resolves(corpus: Corpus, word: str) -> bool:
    return (
        word in corpus.words
        or hasattr(builtins, word)
        or word in sys.stdlib_module_names
    )


def unresolved(corpus: Corpus, span: str) -> List[str]:
    """The names in one code span that do not resolve against the tree."""
    missing: List[str] = []
    for name in _PY_FILE.findall(span):
        if not _file_exists(corpus, name):
            missing.append(name)
    span = _OTHER_FILE.sub(" ", _PY_FILE.sub(" ", span))
    span = _PLACEHOLDER.sub(" ", span)
    for flag in _FLAG.findall(span):
        if flag not in corpus.flags:
            missing.append(flag)
    span = _FLAG.sub(" ", span)
    # Drop string literals: they quote values (link specs, choices), not names.
    span = re.sub(r"\"[^\"]*\"|'[^']*'", " ", span)
    for dotted in _DOTTED.findall(span):
        head, *rest = dotted.split(".")
        if rest and head in corpus.members:
            if rest[0] not in corpus.class_members(head):
                missing.append(f"{head}.{rest[0]}")
            rest = rest[1:]
        elif rest and head in corpus.stdlib_imports:
            if not _stdlib_has(head, rest[0]):
                missing.append(f"{head}.{rest[0]}")
            rest = rest[1:]
        else:
            rest = [head, *rest]
        missing.extend(
            word
            for word in rest
            if _is_checked(word) and not _word_resolves(corpus, word)
        )
    return missing


#: The leading file names of a tree line: ``model.py``, or ``a.py, b.py``.
_TREE_FILES = re.compile(r"\s*((?:[\w]+\.py[, ]*)+)")
_TREE_DIR = re.compile(r"\s*([\w/]+/)(?:\s|$)")
_TREE_WORD = re.compile(r"(?<![\w@])[A-Z][A-Za-z0-9]*[a-z][A-Za-z0-9]*")


def module_tree(text: str) -> List[str]:
    """The lines of the fenced block that opens with ``src/repro/``."""
    lines = text.splitlines()
    for index, line in enumerate(lines):
        if line.strip() == "src/repro/" and _FENCE.match(lines[index - 1]):
            end = next(i for i in range(index, len(lines)) if _FENCE.match(lines[i]))
            return lines[index:end]
    raise AssertionError("no fenced module tree starting with src/repro/")


def tree_files(lines: List[str]) -> List[str]:
    """The files the tree lists, as root-relative paths."""
    stack: List[tuple] = []  # (indent, directory path)
    files: List[str] = []
    for line in lines:
        indent = len(line) - len(line.lstrip())
        while stack and stack[-1][0] >= indent:
            stack.pop()
        parent = stack[-1][1] if stack else ""
        directory = _TREE_DIR.match(line)
        if directory:
            stack.append((indent, parent + directory.group(1)))
            continue
        names = _TREE_FILES.match(line)
        if names:
            files.extend(parent + name for name in re.findall(r"\w+\.py", names.group(1)))
    return files


@pytest.fixture(scope="module")
def corpus() -> Corpus:
    return build_corpus()


class TestModuleTree:
    """DESIGN.md §2's tree lists exactly the modules there are."""

    @pytest.fixture(scope="class")
    def tree(self) -> List[str]:
        return module_tree((ROOT / "DESIGN.md").read_text(encoding="utf-8"))

    def test_listed_files_exist(self, tree, corpus):
        missing = [path for path in tree_files(tree) if path not in corpus.files]
        assert not missing, f"the module tree lists files that do not exist: {missing}"

    def test_every_module_is_listed(self, tree):
        listed = set(tree_files(tree))
        modules = sorted(
            path.relative_to(ROOT).as_posix()
            for path in (ROOT / "src" / "repro").rglob("*.py")
            if path.name != "__init__.py"
        )
        unlisted = [path for path in modules if path not in listed]
        assert not unlisted, f"the module tree leaves out: {unlisted}"

    def test_names_resolve(self, tree, corpus):
        stale = sorted(
            {
                word
                for line in tree
                for word in _TREE_WORD.findall(line)
                if not _word_resolves(corpus, word)
            }
        )
        assert not stale, f"the module tree names code that does not exist: {stale}"

    def test_parser(self):
        lines = [
            "src/repro/",
            "  cli.py           the shell",
            "  core/            the paper's contribution",
            "    model.py         formula 5",
            "    ids.py, placement.py",
            "  util/",
            "    rng.py units.py",
            "  devtools/",
            "    simlint/",
            "      rules/",
            "        unused.py",
            "      cli.py",
        ]
        assert tree_files(lines) == [
            "src/repro/cli.py",
            "src/repro/core/model.py",
            "src/repro/core/ids.py",
            "src/repro/core/placement.py",
            "src/repro/util/rng.py",
            "src/repro/util/units.py",
            "src/repro/devtools/simlint/rules/unused.py",
            "src/repro/devtools/simlint/cli.py",
        ]


@pytest.mark.parametrize("doc", DOCS)
def test_docs_name_only_existing_code(corpus, doc):
    text = (ROOT / doc).read_text(encoding="utf-8")
    stale = sorted({name for span in doc_spans(text) for name in unresolved(corpus, span)})
    assert not stale, f"{doc} cites names the tree does not define: {stale}"


class TestResolver:
    """Each rule flags what it should, and only that."""

    def test_class_members(self, corpus):
        assert unresolved(corpus, "ClusterConfig.racks") == []
        assert unresolved(corpus, "Network._capacity_memo") == []  # self. attribute
        assert unresolved(corpus, "DegradedLink.kind") == []  # from a tree base
        assert unresolved(corpus, "ClusterConfig.pods") == ["ClusterConfig.pods"]

    def test_stdlib_attributes(self, corpus):
        assert unresolved(corpus, "heapq.heappush") == []
        assert unresolved(corpus, "heapq.heap_push") == ["heapq.heap_push"]

    def test_bare_names(self, corpus):
        assert unresolved(corpus, "ClosTopology(hosts, racks)") == []
        assert unresolved(corpus, "REPRO_AUDIT=strict") == []
        assert unresolved(corpus, "a FlatStar") == ["FlatStar"]
        assert unresolved(corpus, "make_topology") == ["make_topology"]
        assert unresolved(corpus, "SHIFTED_STREAMS") == ["SHIFTED_STREAMS"]
        # Lowercase single words and quoted values are prose, not names.
        assert unresolved(corpus, 'path(src, dst) for "tor-up:3"') == []
        assert unresolved(corpus, "Dispatch-root: on sim-fig5") == []

    def test_flags_and_files(self, corpus):
        assert unresolved(corpus, "bench/run.py --workload sim-fig5") == []
        assert unresolved(corpus, "--no-such-flag") == ["--no-such-flag"]
        assert unresolved(corpus, "availability/no_such.py") == [
            "availability/no_such.py"
        ]

    def test_placeholders_and_math_names(self, corpus):
        assert unresolved(corpus, "<Class>.<field>") == []
        assert unresolved(corpus, "Phase.<phase>") == []
        assert unresolved(corpus, "<code>_bad.py") == []
        assert unresolved(corpus, "<code>_worse.py") == ["<code>_worse.py"]
        assert unresolved(corpus, "[a_i, b_i)") == []

    def test_spans_skip_fences_and_may_wrap(self):
        text = "`a`\n```bash\n`b`\n```\n`c\nd`\n\n`e\n\nf`\n"
        assert doc_spans(text) == ["a", "c d"]
