"""Engine behaviours: suppression, severity policy, discovery, CLI output."""

import argparse
import json

import pytest

from repro.devtools.simlint.cli import emit_diagnostics, main as simlint_main
from repro.devtools.simlint.engine import lint_paths
from repro.devtools.simlint.registry import all_rules


def write(tmp_path, rel, text):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


def exit_code(result, strict=False):
    """The exit code the CLI gives a run's diagnostics."""
    args = argparse.Namespace(format="json", strict=strict)
    return emit_diagnostics(result.diagnostics, len(result.modules), args)


WALL_CLOCK = "import time\n\n\ndef stamp():\n    return time.time()\n"


class TestSuppression:
    def test_targeted_suppression_silences_the_finding(self, tmp_path):
        write(
            tmp_path,
            "src/mod.py",
            "import time\n\n\ndef stamp():\n"
            "    return time.time()  # simlint: ignore[D002]\n",
        )
        result = lint_paths([tmp_path / "src"], root=tmp_path)
        assert result.diagnostics == []

    def test_bare_suppression_silences_every_code_on_the_line(self, tmp_path):
        write(
            tmp_path,
            "src/mod.py",
            "import time\n\n\ndef stamp(sink=[]):  # simlint: ignore\n"
            "    sink.append(time.time())  # simlint: ignore\n"
            "    return sink\n",
        )
        result = lint_paths([tmp_path / "src"], root=tmp_path)
        assert result.diagnostics == []

    def test_unused_suppression_is_its_own_diagnostic(self, tmp_path):
        write(tmp_path, "src/mod.py", "VALUE = 1  # simlint: ignore[D002]\n")
        result = lint_paths([tmp_path / "src"], root=tmp_path)
        (diag,) = result.diagnostics
        assert diag.code == "U001"
        assert "D002" in diag.message

    def test_wrong_code_suppresses_nothing_and_is_unused(self, tmp_path):
        write(
            tmp_path,
            "src/mod.py",
            "import time\n\n\ndef stamp():\n"
            "    return time.time()  # simlint: ignore[D001]\n",
        )
        result = lint_paths([tmp_path / "src"], root=tmp_path)
        codes = sorted(d.code for d in result.diagnostics)
        assert codes == ["D002", "U001"]

    def test_docstring_mention_is_not_a_suppression(self, tmp_path):
        write(
            tmp_path,
            "src/mod.py",
            '"""Docs quoting `# simlint: ignore[D001]` verbatim."""\n\nVALUE = 1\n',
        )
        result = lint_paths([tmp_path / "src"], root=tmp_path)
        assert result.diagnostics == []


class TestSuppressionAccounting:
    """Select-aware, per-code usage accounting (U001)."""

    def test_multi_code_ignore_reports_only_the_unused_code(self, tmp_path):
        write(
            tmp_path,
            "src/mod.py",
            "import time\n\n\ndef stamp():\n"
            "    return time.time()  # simlint: ignore[D002, D003]\n",
        )
        result = lint_paths([tmp_path / "src"], root=tmp_path)
        (diag,) = result.diagnostics
        assert diag.code == "U001"
        assert "D003" in diag.message and "D002" not in diag.message

    def test_select_does_not_judge_deselected_codes_unused(self, tmp_path):
        # Regression: a --select run used to emit U001 for every listed
        # code whose rule never even ran this invocation.
        write(
            tmp_path,
            "src/mod.py",
            "import random\n\n\ndef jitter():\n"
            "    return random.random()  # simlint: ignore[D001, D003]\n",
        )
        full = lint_paths([tmp_path / "src"], root=tmp_path)
        assert [d.code for d in full.diagnostics] == ["U001"]  # D003 is stale
        partial = lint_paths([tmp_path / "src"], root=tmp_path, select={"D001"})
        assert partial.diagnostics == []  # no evidence D003 is stale

    def test_unknown_code_is_u001_on_full_runs_only(self, tmp_path):
        write(
            tmp_path,
            "src/mod.py",
            "import time\n\n\ndef stamp():\n"
            "    return time.time()  # simlint: ignore[D002, Z999]\n",
        )
        full = lint_paths([tmp_path / "src"], root=tmp_path)
        (diag,) = full.diagnostics
        assert diag.code == "U001"
        assert "unknown code Z999" in diag.message
        partial = lint_paths([tmp_path / "src"], root=tmp_path, select={"D002"})
        assert partial.diagnostics == []

    def test_bare_ignore_unused_only_judged_on_full_runs(self, tmp_path):
        write(tmp_path, "src/mod.py", "VALUE = 1  # simlint: ignore\n")
        full = lint_paths([tmp_path / "src"], root=tmp_path)
        assert [d.code for d in full.diagnostics] == ["U001"]
        partial = lint_paths([tmp_path / "src"], root=tmp_path, select={"D001"})
        assert partial.diagnostics == []

    def test_one_comment_covers_every_rule_family(self, tmp_path):
        # One prefix for all rules: a D and an F code share one comment,
        # and a listed code that does not fire on its line is U001.
        write(
            tmp_path,
            "src/mod.py",
            "import time\n\nfrom repro.util.rng import RandomSource\n\n\n"
            "def stamp():\n"
            "    return RandomSource(7), time.time()  # simlint: ignore[D002, F003]\n\n\n"
            "def later():\n"
            "    return time.time()  # simlint: ignore[D002, F003]\n",
        )
        result = lint_paths([tmp_path / "src"], root=tmp_path)
        (diag,) = result.diagnostics
        assert (diag.code, diag.line) == ("U001", 11)
        assert "F003" in diag.message and "D002" not in diag.message


class TestSeverityAndSelect:
    def test_src_findings_are_errors(self, tmp_path):
        write(tmp_path, "src/mod.py", WALL_CLOCK)
        result = lint_paths([tmp_path / "src"], root=tmp_path)
        (diag,) = result.diagnostics
        assert diag.severity == "error"
        assert exit_code(result) == 1

    def test_tests_findings_are_warnings_unless_strict(self, tmp_path):
        write(tmp_path, "tests/test_mod.py", WALL_CLOCK)
        result = lint_paths([tmp_path / "tests"], root=tmp_path)
        (diag,) = result.diagnostics
        assert diag.severity == "warning"
        assert exit_code(result) == 0
        assert exit_code(result, strict=True) == 1

    def test_select_restricts_reported_rules(self, tmp_path):
        write(
            tmp_path,
            "src/mod.py",
            "import time\n\n\ndef stamp(sink=[]):\n"
            "    sink.append(time.time())\n    return sink\n",
        )
        result = lint_paths([tmp_path / "src"], root=tmp_path, select={"D005"})
        assert [d.code for d in result.diagnostics] == ["D005"]

    def test_src_below_a_tests_directory_outside_root_is_source(self, tmp_path):
        # Outside the root, the innermost category directory decides.
        path = write(tmp_path, "tests/proj/src/mod.py", WALL_CLOCK)
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        result = lint_paths([path.parent], root=elsewhere)
        (diag,) = result.diagnostics
        assert diag.severity == "error"
        assert simlint_main([str(path.parent), "--root", str(elsewhere)]) == 1


class TestDiscovery:
    def test_tree_under_a_dot_directory_is_linted(self, tmp_path):
        # Only the parts below the passed directory are pruned.
        project = tmp_path / ".work"
        write(project, "src/mod.py", WALL_CLOCK)
        result = lint_paths([project / "src"], root=project)
        assert [d.code for d in result.diagnostics] == ["D002"]
        assert len(result.modules) == 1

    def test_fixture_directories_are_pruned(self, tmp_path):
        write(tmp_path, "src/fixtures/broken.py", WALL_CLOCK)
        write(tmp_path, "src/mod.py", "VALUE = 1\n")
        result = lint_paths([tmp_path / "src"], root=tmp_path)
        assert result.diagnostics == []
        assert len(result.modules) == 1

    def test_explicit_fixture_file_is_still_lintable(self, tmp_path):
        path = write(tmp_path, "src/fixtures/broken.py", WALL_CLOCK)
        result = lint_paths([path], root=tmp_path)
        assert [d.code for d in result.diagnostics] == ["D002"]

    def test_syntax_error_yields_p001(self, tmp_path):
        write(tmp_path, "src/mod.py", "def broken(:\n")
        result = lint_paths([tmp_path / "src"], root=tmp_path)
        (diag,) = result.diagnostics
        assert diag.code == "P001"
        assert exit_code(result) == 1


class TestCli:
    def test_text_output_and_exit_code(self, tmp_path, capsys):
        write(tmp_path, "src/mod.py", WALL_CLOCK)
        code = simlint_main([str(tmp_path / "src"), "--root", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "D002" in out
        assert "1 error(s)" in out

    def test_json_output_is_stable_across_runs(self, tmp_path, capsys):
        write(tmp_path, "src/mod.py", WALL_CLOCK)
        argv = [str(tmp_path / "src"), "--root", str(tmp_path), "--format", "json"]
        simlint_main(argv)
        first = capsys.readouterr().out
        simlint_main(argv)
        second = capsys.readouterr().out
        assert first == second
        document = json.loads(first)
        assert document["version"] == 1
        assert document["counts"] == {"errors": 1, "warnings": 0, "files": 1}
        (diag,) = document["diagnostics"]
        assert diag["code"] == "D002"

    def test_graph_artifacts_dot_and_json(self, tmp_path, capsys):
        write(
            tmp_path,
            "src/mod.py",
            "ACCOUNTING = 0\n\n\n"
            "class Event:\n    def __init__(self, time):\n        self.time = time\n\n\n"
            "class Ping(Event):\n    pass\n\n\n"
            "def on_ping(event):\n    return event\n\n\n"
            "def wire(bus):\n"
            "    bus.subscribe(Ping, on_ping, ACCOUNTING)\n"
            "    bus.publish(Ping(0.0))\n",
        )
        dot_path = tmp_path / "bus.dot"
        json_path = tmp_path / "bus.json"
        for target in (dot_path, json_path):
            code = simlint_main(
                [str(tmp_path / "src"), "--root", str(tmp_path), "--graph", str(target)]
            )
            capsys.readouterr()
            assert code == 0
        assert "Ping" in dot_path.read_text()
        graph = json.loads(json_path.read_text())
        assert "Ping" in graph["events"]

    def test_list_rules_names_every_code(self, tmp_path, capsys):
        code = simlint_main(["--list-rules"])
        out = capsys.readouterr().out
        assert code == 0
        listed = {line.split()[0] for line in out.splitlines()}
        assert listed == set(all_rules())
        assert {"D001", "D005", "C001", "C005", "F001", "F004"} <= listed

    def test_select_with_an_unknown_code_exits_2(self, tmp_path, capsys):
        write(tmp_path, "src/mod.py", WALL_CLOCK)
        argv = [str(tmp_path / "src"), "--root", str(tmp_path), "--select"]
        code = simlint_main([*argv, "D02,D002,Z9"])
        err = capsys.readouterr().err
        assert code == 2
        assert "D02" in err and "Z9" in err and "D002" not in err
        assert simlint_main([*argv, "D002,U001,P001"]) == 1

    def test_missing_path_exits_2(self, tmp_path, capsys):
        code = simlint_main([str(tmp_path / "nope"), "--root", str(tmp_path)])
        capsys.readouterr()
        assert code == 2

    def test_repro_lint_subcommand_delegates(self, tmp_path, capsys):
        from repro.cli import main as repro_main

        write(tmp_path, "src/mod.py", WALL_CLOCK)
        code = repro_main(["lint", str(tmp_path / "src"), "--root", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "D002" in out


class TestSarif:
    def test_sarif_document_shape(self, tmp_path, capsys):
        write(tmp_path, "src/mod.py", WALL_CLOCK)
        code = simlint_main(
            [str(tmp_path / "src"), "--root", str(tmp_path), "--format", "sarif"]
        )
        document = json.loads(capsys.readouterr().out)
        assert code == 1
        assert document["version"] == "2.1.0"
        (run,) = document["runs"]
        assert run["tool"]["driver"]["name"] == "simlint"
        assert any(rule["id"] == "D002" for rule in run["tool"]["driver"]["rules"])
        (result,) = run["results"]
        assert result["ruleId"] == "D002"
        assert result["level"] == "error"
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == 5
        assert region["startColumn"] >= 1  # SARIF columns are 1-based

    def test_sarif_output_is_stable_across_runs(self, tmp_path, capsys):
        write(tmp_path, "src/mod.py", WALL_CLOCK)
        argv = [str(tmp_path / "src"), "--root", str(tmp_path), "--format", "sarif"]
        simlint_main(argv)
        first = capsys.readouterr().out
        simlint_main(argv)
        second = capsys.readouterr().out
        assert first == second


class TestBaseline:
    def test_write_then_subtract_round_trip(self, tmp_path, capsys):
        write(tmp_path, "src/mod.py", WALL_CLOCK)
        baseline = tmp_path / "baseline.json"
        argv = [str(tmp_path / "src"), "--root", str(tmp_path), "--baseline", str(baseline)]
        assert simlint_main(argv + ["--write-baseline"]) == 0
        capsys.readouterr()
        assert baseline.exists()
        assert simlint_main(argv) == 0  # the finding is baselined away
        assert "baselined" in capsys.readouterr().out

    def test_only_new_findings_gate_after_baseline(self, tmp_path, capsys):
        write(tmp_path, "src/mod.py", WALL_CLOCK)
        baseline = tmp_path / "baseline.json"
        argv = [str(tmp_path / "src"), "--root", str(tmp_path), "--baseline", str(baseline)]
        simlint_main(argv + ["--write-baseline"])
        capsys.readouterr()
        write(
            tmp_path,
            "src/other.py",
            "import random\n\n\ndef jitter():\n    return random.random()\n",
        )
        code = simlint_main(argv)
        out = capsys.readouterr().out
        assert code == 1
        assert "D001" in out and "D002" not in out

    def test_baseline_is_multiplicity_aware(self, tmp_path, capsys):
        write(
            tmp_path,
            "src/mod.py",
            "import time\n\n\ndef stamp():\n    return time.time()\n\n\n"
            "def stamp2():\n    return time.time()\n",
        )
        baseline = tmp_path / "baseline.json"
        argv = [str(tmp_path / "src"), "--root", str(tmp_path), "--baseline", str(baseline)]
        simlint_main(argv + ["--write-baseline"])
        capsys.readouterr()
        document = json.loads(baseline.read_text())
        (entry,) = document["entries"]
        assert entry["count"] == 2
        # A third identical finding is new and must gate.
        write(
            tmp_path,
            "src/mod.py",
            "import time\n\n\ndef stamp():\n    return time.time()\n\n\n"
            "def stamp2():\n    return time.time()\n\n\n"
            "def stamp3():\n    return time.time()\n",
        )
        code = simlint_main(argv)
        out = capsys.readouterr().out
        assert code == 1
        assert out.count("D002") == 1

    def test_write_baseline_keeps_surviving_justifications(self, tmp_path, capsys):
        write(tmp_path, "src/mod.py", WALL_CLOCK)
        write(tmp_path, "src/other.py", "import random\n\nJITTER = random.random()\n")
        baseline = tmp_path / "baseline.json"
        argv = [str(tmp_path / "src"), "--root", str(tmp_path), "--baseline", str(baseline)]
        simlint_main(argv + ["--write-baseline"])
        document = json.loads(baseline.read_text())
        for entry in document["entries"]:
            entry["justification"] = f"why {entry['code']}"
        baseline.write_text(json.dumps(document))
        (tmp_path / "src" / "other.py").unlink()
        assert simlint_main(argv + ["--write-baseline"]) == 0
        capsys.readouterr()
        (entry,) = json.loads(baseline.read_text())["entries"]
        assert (entry["code"], entry["justification"]) == ("D002", "why D002")

    def _justified_baseline(self, tmp_path):
        """A two-entry baseline (D002 in mod.py, D001 in other.py), justified."""
        write(tmp_path, "src/mod.py", WALL_CLOCK)
        write(tmp_path, "src/other.py", "import random\n\nJITTER = random.random()\n")
        baseline = tmp_path / "baseline.json"
        argv = [str(tmp_path / "src"), "--root", str(tmp_path), "--baseline", str(baseline)]
        assert simlint_main(argv + ["--write-baseline"]) == 0
        document = json.loads(baseline.read_text())
        for entry in document["entries"]:
            entry["justification"] = f"why {entry['code']}"
        baseline.write_text(json.dumps(document))
        return baseline, document["entries"]

    def test_write_baseline_under_select_keeps_unselected_entries(self, tmp_path, capsys):
        baseline, entries = self._justified_baseline(tmp_path)
        assert [e["code"] for e in entries] == ["D002", "D001"]
        argv = [str(tmp_path / "src"), "--root", str(tmp_path), "--baseline", str(baseline)]
        assert simlint_main(argv + ["--select", "D001", "--write-baseline"]) == 0
        assert json.loads(baseline.read_text())["entries"] == entries
        # Inside the run, entries are replaced: the D002 finding is fixed.
        write(tmp_path, "src/mod.py", "VALUE = 1\n")
        assert simlint_main(argv + ["--select", "D002", "--write-baseline"]) == 0
        capsys.readouterr()
        (entry,) = json.loads(baseline.read_text())["entries"]
        assert (entry["code"], entry["justification"]) == ("D001", "why D001")

    def test_write_baseline_over_a_subset_keeps_other_paths(self, tmp_path, capsys):
        baseline, entries = self._justified_baseline(tmp_path)
        mod = str(tmp_path / "src" / "mod.py")
        argv = [mod, "--root", str(tmp_path), "--baseline", str(baseline)]
        assert simlint_main(argv + ["--write-baseline"]) == 0
        capsys.readouterr()
        assert json.loads(baseline.read_text())["entries"] == entries

    def test_missing_baseline_file_exits_2(self, tmp_path, capsys):
        write(tmp_path, "src/mod.py", "VALUE = 1\n")
        with pytest.raises(SystemExit) as excinfo:
            simlint_main(
                [
                    str(tmp_path / "src"),
                    "--root",
                    str(tmp_path),
                    "--baseline",
                    str(tmp_path / "nope.json"),
                ]
            )
        assert excinfo.value.code == 2

    def test_write_baseline_requires_baseline_path(self, tmp_path, capsys):
        write(tmp_path, "src/mod.py", "VALUE = 1\n")
        with pytest.raises(SystemExit) as excinfo:
            simlint_main(
                [str(tmp_path / "src"), "--root", str(tmp_path), "--write-baseline"]
            )
        assert excinfo.value.code == 2
