"""F-rule finding shapes, suppression, the CLI on F rules, and effects.

Same conventions as ``test_simlint_rules.py`` (which also holds the
fixture pairs of every rule): fixtures are copied into a ``src/``
directory under ``tmp_path`` so they analyse at error severity, and the
fixture corpus itself is pruned from repo-wide runs.
"""

import json
import shutil
from pathlib import Path

from repro.devtools.simlint.cli import main as simlint_main
from repro.devtools.simlint.engine import lint_paths

FIXTURES = Path(__file__).parent / "fixtures"


def lint_fixture(tmp_path, name):
    src = tmp_path / "src"
    src.mkdir(exist_ok=True)
    shutil.copy(FIXTURES / f"{name}.py", src / f"{name}.py")
    return lint_paths([str(src)], root=str(tmp_path))


class TestFindingShape:
    def test_f001_names_both_handlers_and_the_conflict_field(self, tmp_path):
        result = lint_fixture(tmp_path, "f001_bad")
        (diag,) = result.diagnostics
        assert "Mutator.handle_node_down" in diag.message
        assert "Auditor.handle_node_down" in diag.message
        assert "Store.count" in diag.message
        assert "NETWORK" in diag.message and "STORAGE" in diag.message

    def test_f002_points_at_the_publish_site_and_suggests_the_marker(self, tmp_path):
        result = lint_fixture(tmp_path, "f002_bad")
        (diag,) = result.diagnostics
        text = (FIXTURES / "f002_bad.py").read_text().splitlines()
        assert "publish" in text[diag.line - 1]
        assert "dispatch-root" in diag.message

    def test_f003_reports_contract_origin_and_draw_site(self, tmp_path):
        result = lint_fixture(tmp_path, "f003_bad")
        contract = [d for d in result.diagnostics if "draw-free" in d.message]
        seeds = [d for d in result.diagnostics if "literal constant" in d.message]
        assert len(contract) == 1 and len(seeds) == 1
        assert "comment contract" in contract[0].message
        assert "RandomSource.choice" in contract[0].message

    def test_f004_names_each_capture_kind(self, tmp_path):
        result = lint_fixture(tmp_path, "f004_bad")
        messages = " | ".join(d.message for d in result.diagnostics)
        assert "lambda" in messages
        assert "bound method" in messages
        assert "nested function" in messages

    def test_f003_docstring_phrase_is_a_contract(self, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        (src / "mod.py").write_text(
            "class RandomSource:\n"
            "    def choice(self, items):\n"
            "        return items[0]\n\n\n"
            "class Placer:\n"
            "    def pick(self, rng: RandomSource, items):\n"
            '        """Substitute deterministically; consumes no randomness."""\n'
            "        return rng.choice(items)\n"
        )
        result = lint_paths([src], root=tmp_path)
        (diag,) = result.diagnostics
        assert diag.code == "F003"
        assert "docstring contract" in diag.message

    def test_transitive_draw_through_a_helper_violates_the_contract(self, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        (src / "mod.py").write_text(
            "class RandomSource:\n"
            "    def choice(self, items):\n"
            "        return items[0]\n\n\n"
            "class Placer:\n"
            "    def _helper(self, rng: RandomSource, items):\n"
            "        return rng.choice(items)\n\n"
            "    def pick(self, rng: RandomSource, items):  # simlint: draws=0\n"
            "        return self._helper(rng, items)\n"
        )
        result = lint_paths([src], root=tmp_path)
        (diag,) = result.diagnostics
        assert diag.code == "F003"
        assert "Placer.pick" in diag.message


class TestSuppression:
    def test_simflow_ignore_silences_an_f_rule(self, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        text = (FIXTURES / "f004_bad.py").read_text().replace(
            "doubled = pool.map(lambda spec: spec * 2, specs)",
            "doubled = pool.map(lambda spec: spec * 2, specs)  # simlint: ignore[F004]",
        )
        (src / "mod.py").write_text(text)
        result = lint_paths([src], root=tmp_path)
        codes = [d.code for d in result.diagnostics]
        assert codes == ["F004", "F004"]  # the other two sites still fire


class TestCli:
    """The one CLI runs the F rules and writes the effect index."""

    def test_list_rules_names_every_f_code(self, capsys):
        code = simlint_main(["--list-rules"])
        out = capsys.readouterr().out
        assert code == 0
        for expected in ("F001", "F002", "F003", "F004"):
            assert expected in out

    def test_text_output_and_exit_code(self, tmp_path, capsys):
        src = tmp_path / "src"
        src.mkdir()
        shutil.copy(FIXTURES / "f004_bad.py", src / "mod.py")
        code = simlint_main([str(src), "--root", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "F004" in out

    def test_effects_artifact_has_closed_sets(self, tmp_path, capsys):
        src = tmp_path / "src"
        src.mkdir()
        shutil.copy(FIXTURES / "f001_bad.py", src / "mod.py")
        effects_path = tmp_path / "effects.json"
        code = simlint_main(
            [str(src), "--root", str(tmp_path), "--effects", str(effects_path)]
        )
        capsys.readouterr()
        assert code == 1
        document = json.loads(effects_path.read_text())
        assert document["version"] == 1
        reader = document["functions"]["Auditor.handle_node_down"]
        writer = document["functions"]["Mutator.handle_node_down"]
        assert "Store.count" in reader["reads"]
        assert "Store.count" in writer["writes"]

    def test_sarif_format_reports_f_rules(self, tmp_path, capsys):
        src = tmp_path / "src"
        src.mkdir()
        shutil.copy(FIXTURES / "f002_bad.py", src / "mod.py")
        code = simlint_main(
            [str(src), "--root", str(tmp_path), "--format", "sarif"]
        )
        document = json.loads(capsys.readouterr().out)
        assert code == 1
        (run,) = document["runs"]
        assert run["tool"]["driver"]["name"] == "simlint"
        assert [r["ruleId"] for r in run["results"]] == ["F002"]

    def test_baseline_round_trip(self, tmp_path, capsys):
        src = tmp_path / "src"
        src.mkdir()
        shutil.copy(FIXTURES / "f001_bad.py", src / "mod.py")
        baseline = tmp_path / "baseline.json"
        argv = [str(src), "--root", str(tmp_path), "--baseline", str(baseline)]
        assert simlint_main(argv + ["--write-baseline"]) == 0
        capsys.readouterr()
        assert simlint_main(argv) == 0
        assert "baselined" in capsys.readouterr().out


class TestEffectExtraction:
    """Regressions for extraction gaps the runtime crosscheck exposed."""

    def _index(self, tmp_path, source):
        src = tmp_path / "src"
        src.mkdir()
        (src / "mod.py").write_text(source)
        return lint_paths([src], root=tmp_path).corpus.effects

    def test_optional_string_annotation_resolves_the_field_type(self, tmp_path):
        index = self._index(
            tmp_path,
            "from typing import Optional\n\n\n"
            "class Tracker:\n"
            "    def __init__(self):\n"
            "        self.fails = 0\n\n"
            "    def on_fail(self):\n"
            "        self.fails += 1\n\n\n"
            "class Worker:\n"
            "    def __init__(self, tracker: Optional[\"Tracker\"] = None):\n"
            "        self._tracker = tracker\n\n"
            "    def handle_node_down(self, event):\n"
            "        self._tracker.on_fail()\n",
        )
        effects = index.lookup("Worker", "handle_node_down")
        assert effects is not None
        assert "Tracker.fails" in effects.writes

    def test_dict_rebuild_keeps_the_value_type(self, tmp_path):
        index = self._index(
            tmp_path,
            "from typing import Dict\n\n\n"
            "class Tracker:\n"
            "    def __init__(self):\n"
            "        self.up = True\n\n\n"
            "class Master:\n"
            "    def __init__(self, trackers: Dict[int, Tracker]):\n"
            "        self._trackers = dict(sorted(trackers.items()))\n\n"
            "    def handle_node_down(self, event):\n"
            "        for _node, tracker in self._trackers.items():\n"
            "            tracker.up = False\n",
        )
        effects = index.lookup("Master", "handle_node_down")
        assert effects is not None
        assert "Tracker.up" in effects.writes

    def test_dict_get_types_like_a_subscript(self, tmp_path):
        # A handler reaching a dict field's value through d.get(k) has the
        # same effects as one reaching it through d[k].
        index = self._index(
            tmp_path,
            "from typing import Dict, Optional\n\n\n"
            "class Handle:\n"
            "    def __init__(self):\n"
            "        self.cancelled = False\n\n"
            "    def cancel(self):\n"
            "        self.cancelled = True\n\n\n"
            "class Watchdog:\n"
            "    def __init__(self):\n"
            "        self._timers: Dict[int, Optional[Handle]] = {}\n\n"
            "    def handle_node_down(self, event):\n"
            "        self._timers.get(event.node_id).cancel()\n\n"
            "    def handle_node_up(self, event):\n"
            "        self._timers[event.node_id].cancel()\n",
        )
        via_get = index.lookup("Watchdog", "handle_node_down")
        via_subscript = index.lookup("Watchdog", "handle_node_up")
        assert via_get is not None and via_subscript is not None
        assert "Handle.cancelled" in via_subscript.writes
        assert (via_get.reads, via_get.writes) == (via_subscript.reads, via_subscript.writes)

    def test_covered_closure_links_stored_callbacks(self, tmp_path):
        index = self._index(
            tmp_path,
            "class Transfer:\n"
            "    def __init__(self, on_done):\n"
            "        self.on_done = on_done\n\n\n"
            "class Network:\n"
            "    def __init__(self):\n"
            "        self._ids = 0\n\n"
            "    def send(self, callback):\n"
            "        self._ids += 1\n"
            "        return Transfer(on_done=callback)\n\n"
            "    def finish(self, transfer: Transfer):\n"
            "        transfer.on_done(transfer)\n\n\n"
            "class Caller:\n"
            "    def __init__(self, network: Network):\n"
            "        self._network = network\n"
            "        self.done = 0\n\n"
            "    def start(self):\n"
            "        self._network.send(on_done=lambda t: self._mark(t))\n\n"
            "    def _mark(self, transfer):\n"
            "        self.done += 1\n",
        )
        # Hazard closure: finish() only invokes an opaque attribute.
        closed = index.lookup("Network", "finish")
        assert closed is not None and "Caller.done" not in closed.writes
        # Coverage closure: the on_done registration in Caller.start links
        # finish() to the lambda's effects (folded into start).
        covered = index.lookup_covered("Network", "finish")
        assert covered is not None and "Caller.done" in covered.writes


class TestRepoSource:
    """The repo's own src/ and tests/ pass every rule modulo the one baseline."""

    def test_src_is_clean_under_the_committed_baseline(self):
        repo = Path(__file__).resolve().parents[2]
        result = lint_paths([repo / "src", repo / "tests"], root=repo)
        baseline = json.loads((repo / "tools" / "simlint_baseline.json").read_text())
        allowed: dict = {}
        for entry in baseline["entries"]:
            key = (entry["path"], entry["code"])
            allowed[key] = allowed.get(key, 0) + entry["count"]
        extra = []
        for diag in result.diagnostics:
            key = (diag.path, diag.code)
            if allowed.get(key, 0) > 0:
                allowed[key] -= 1
            else:
                extra.append(diag.render())
        assert extra == [], extra

    def test_committed_baseline_stays_small_and_justified(self):
        repo = Path(__file__).resolve().parents[2]
        baseline = json.loads((repo / "tools" / "simlint_baseline.json").read_text())
        assert len(baseline["entries"]) <= 3
        for entry in baseline["entries"]:
            assert entry.get("justification"), entry
