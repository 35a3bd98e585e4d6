"""simlint command line: ``python -m repro.devtools.simlint`` / ``repro lint``.

One run executes every registered rule — determinism (D), bus contract
(C), flow (F) and unused code (U) — unless ``--select`` narrows it.
Output is one ``file:line:col CODE message`` line per diagnostic, a
stable JSON document under ``--format json``, or a SARIF 2.1.0 document
under ``--format sarif`` (for GitHub code-scanning upload). Exit status is 1
when any *error*-severity diagnostic fires — findings in ``src/`` are
errors, findings elsewhere are warnings unless ``--strict`` promotes
them — and 2 on a usage error. ``--graph`` additionally writes the
statically-extracted event-bus graph (DOT by default, JSON for ``.json``
paths) and ``--effects`` the closed per-function effect sets as JSON.

``--baseline FILE`` subtracts a committed finding snapshot so only new
findings gate; ``--write-baseline`` refreshes the snapshot's entries for
the codes and paths the current run checked and keeps the others.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.devtools.simflow.effects import effects_to_json
from repro.devtools.simlint.busgraph import to_dot, to_json
from repro.devtools.simlint.diagnostics import Diagnostic
from repro.devtools.simlint.engine import LintResult, known_codes, lint_paths
from repro.devtools.simlint.output import (
    apply_baseline,
    load_baseline,
    to_sarif,
    write_baseline,
)
from repro.devtools.simlint.registry import all_rules


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach simlint's options (``repro lint`` reuses this)."""
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyse (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json", "sarif"],
        default="text",
        help="diagnostic output format (default: text)",
    )
    parser.add_argument(
        "--graph",
        metavar="PATH",
        default=None,
        help="write the extracted event-bus graph to PATH "
        "(.json for JSON, anything else for GraphViz DOT)",
    )
    parser.add_argument(
        "--effects",
        metavar="PATH",
        default=None,
        help="write the closed per-function effect sets to PATH as JSON",
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        default=None,
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="treat warnings (findings outside src/) as errors",
    )
    parser.add_argument(
        "--root",
        metavar="DIR",
        default=None,
        help="repository root for display paths and categories (default: cwd)",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        default=None,
        help="subtract the findings recorded in FILE; only new findings gate",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="record the current findings into --baseline FILE and exit 0",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule table and exit",
    )


def _fail(message: str) -> int:
    print(f"simlint: {message}", file=sys.stderr)
    return 2


def _write_json(path: Path, document: object) -> None:
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def subtract_baseline(
    result: LintResult, args: argparse.Namespace
) -> Optional[List[Diagnostic]]:
    """Handle ``--baseline`` / ``--write-baseline``.

    Returns the (possibly filtered) diagnostics to report, or ``None``
    when the invocation only wrote a baseline and should exit 0.
    """
    diagnostics = result.diagnostics
    if not args.baseline:
        if args.write_baseline:
            raise SystemExit(_fail("--write-baseline requires --baseline FILE"))
        return diagnostics
    path = Path(args.baseline)
    try:
        if args.write_baseline:
            written, kept = write_baseline(path, diagnostics, covers=result.covers)
            print(
                f"simlint: wrote {written} finding(s) to {path}, "
                f"kept {kept} entry(ies) outside this run"
            )
            return None
        baseline = load_baseline(path)
    except (OSError, ValueError, KeyError) as exc:
        raise SystemExit(_fail(f"cannot use baseline {path}: {exc}")) from exc
    filtered, matched = apply_baseline(diagnostics, baseline)
    if matched and args.format == "text":
        print(f"simlint: {matched} baselined finding(s) suppressed")
    return filtered


def emit_diagnostics(
    diagnostics: List[Diagnostic], files: int, args: argparse.Namespace
) -> int:
    """Render diagnostics in the selected format; returns the exit code."""
    errors = [d for d in diagnostics if d.severity == "error"]
    warnings = [d for d in diagnostics if d.severity == "warning"]
    if args.format == "json":
        document = {
            "version": 1,
            "diagnostics": [d.as_json() for d in diagnostics],
            "counts": {
                "errors": len(errors),
                "warnings": len(warnings),
                "files": files,
            },
        }
        print(json.dumps(document, indent=2, sort_keys=True))
    elif args.format == "sarif":
        print(json.dumps(to_sarif(diagnostics, all_rules()), indent=2, sort_keys=True))
    else:
        for diagnostic in diagnostics:
            marker = "" if diagnostic.severity == "error" else " (warning)"
            print(f"{diagnostic.render()}{marker}")
        if diagnostics:
            print(
                f"simlint: {len(errors)} error(s), "
                f"{len(warnings)} warning(s) in {files} file(s)"
            )
    if errors:
        return 1
    if args.strict and warnings:
        return 1
    return 0


def parse_select(raw: Optional[str]) -> Optional[set]:
    if not raw:
        return None
    return {code.strip().upper() for code in raw.split(",") if code.strip()}


def run(args: argparse.Namespace) -> int:
    """Execute a lint run from parsed arguments; returns the exit code."""
    if args.list_rules:
        for code, rule_class in all_rules().items():
            print(f"{code}  {rule_class.summary}")
        return 0

    select = parse_select(args.select)
    unknown = sorted((select or set()) - known_codes())
    if unknown:
        return _fail(f"--select names code(s) no registered rule emits: {', '.join(unknown)}")

    root = Path(args.root) if args.root else Path.cwd()
    try:
        result = lint_paths([Path(p) for p in args.paths], root=root, select=select)
    except FileNotFoundError as exc:
        return _fail(str(exc))

    if args.graph is not None:
        graph_path = Path(args.graph)
        if graph_path.suffix == ".json":
            _write_json(graph_path, to_json(result.graph))
        else:
            graph_path.write_text(to_dot(result.graph), encoding="utf-8")
    if args.effects is not None:
        _write_json(Path(args.effects), effects_to_json(result.corpus.effects))

    diagnostics = subtract_baseline(result, args)
    if diagnostics is None:
        return 0
    return emit_diagnostics(diagnostics, len(result.modules), args)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="simlint",
        description="static determinism, event-bus contract and flow analysis",
    )
    add_arguments(parser)
    args = parser.parse_args(list(argv) if argv is not None else None)
    return run(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
