"""Every rule is exercised by a (violating, clean) fixture pair.

Fixtures are copied into a ``src/`` directory inside ``tmp_path`` so they
lint at *error* severity — D004's tests-category exemption (and the
warning downgrade for everything outside ``src``) would otherwise hide
them. Every rule family runs on every fixture, so a ``_bad`` fixture must
trip its own rule and nothing else. The fixture corpus itself lives in
``fixtures/``, which the engine's discovery prunes, so the repo-wide
``simlint src tests`` run never sees these intentionally-broken modules.
"""

import shutil
from pathlib import Path

import pytest

from repro.devtools.simlint.engine import lint_paths
from repro.devtools.simlint.registry import all_rules

FIXTURES = Path(__file__).parent / "fixtures"
RULES = sorted(all_rules())


def lint_fixture(tmp_path, name):
    src = tmp_path / "src"
    src.mkdir(exist_ok=True)
    shutil.copy(FIXTURES / f"{name}.py", src / f"{name}.py")
    return lint_paths([str(src)], root=str(tmp_path))


@pytest.mark.parametrize("rule", RULES)
class TestFixturePairs:
    def test_bad_fixture_flags_exactly_that_rule(self, tmp_path, rule):
        result = lint_fixture(tmp_path, f"{rule.lower()}_bad")
        codes = {d.code for d in result.diagnostics}
        assert codes == {rule}, [d.render() for d in result.diagnostics]
        assert all(d.severity == "error" for d in result.diagnostics)
        assert result.exit_code(strict=False) == 1

    def test_clean_fixture_produces_no_diagnostics(self, tmp_path, rule):
        result = lint_fixture(tmp_path, f"{rule.lower()}_ok")
        assert result.diagnostics == [], [d.render() for d in result.diagnostics]
        assert result.exit_code(strict=False) == 0


class TestChaosServicePair:
    """A chaos-engine-shaped service tripping two rules at once: wired
    onto the bus without registration (C002) and missing stop() (C003).
    """

    def test_bad_fixture_flags_both_rules(self, tmp_path):
        result = lint_fixture(tmp_path, "chaos_service_bad")
        codes = {d.code for d in result.diagnostics}
        assert codes == {"C002", "C003"}, [d.render() for d in result.diagnostics]
        assert all(d.severity == "error" for d in result.diagnostics)
        assert result.exit_code(strict=False) == 1

    def test_clean_fixture_produces_no_diagnostics(self, tmp_path):
        result = lint_fixture(tmp_path, "chaos_service_ok")
        assert result.diagnostics == [], [d.render() for d in result.diagnostics]
        assert result.exit_code(strict=False) == 0


class TestDiagnosticShape:
    def test_positions_point_into_the_fixture(self, tmp_path):
        result = lint_fixture(tmp_path, "d005_bad")
        (diag,) = result.diagnostics
        text = (FIXTURES / "d005_bad.py").read_text().splitlines()
        assert 1 <= diag.line <= len(text)
        assert "sink=[]" in text[diag.line - 1]

    def test_render_is_file_line_col_code_message(self, tmp_path):
        result = lint_fixture(tmp_path, "d002_bad")
        (diag,) = result.diagnostics
        rendered = diag.render()
        assert rendered == f"{diag.path}:{diag.line}:{diag.col} D002 {diag.message}"

    def test_c001_reports_both_orphan_directions(self, tmp_path):
        result = lint_fixture(tmp_path, "c001_bad")
        messages = sorted(d.message for d in result.diagnostics)
        assert len(messages) == 2
        assert "never subscribed" in messages[0]
        assert "never published" in messages[1]
