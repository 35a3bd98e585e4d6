"""simlint: the static analyzer — determinism, bus-contract, flow and unused-code rules.

Run it as ``python -m repro.devtools.simlint src tests`` or via the
``repro lint`` subcommand; one run executes every registered rule. See
DESIGN.md, "Static analysis: simlint" for the rule table and the
relationship to the runtime invariant auditor.

Public API:

* :func:`~repro.devtools.simlint.engine.lint_paths` — lint files/dirs,
  returning a :class:`~repro.devtools.simlint.engine.LintResult` whose
  :class:`~repro.devtools.simlint.model.Corpus` holds the bus graph and
  the effect index.
* :func:`~repro.devtools.simlint.busgraph.extract_graph` — statically
  extract the event-bus publisher/subscriber graph of a corpus.
* :func:`~repro.devtools.simlint.registry.all_rules` — the rule registry.
"""

from repro.devtools.simlint.busgraph import BusGraph, extract_graph, to_dot, to_json
from repro.devtools.simlint.diagnostics import Diagnostic, Finding
from repro.devtools.simlint.engine import LintResult, lint_paths
from repro.devtools.simlint.model import Corpus
from repro.devtools.simlint.registry import all_rules

__all__ = [
    "BusGraph",
    "Corpus",
    "Diagnostic",
    "Finding",
    "LintResult",
    "all_rules",
    "extract_graph",
    "lint_paths",
    "to_dot",
    "to_json",
]
