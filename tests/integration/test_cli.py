"""Tests for the command-line interface."""

from pathlib import Path

import pytest

from repro.availability.generator import count_unstable
from repro.cli import main
from repro.experiments.config import SimulationConfig

CAMPAIGN_PATH = Path(__file__).parents[2] / "examples" / "chaos_smoke.json"


class TestCli:
    def test_no_command_shows_help(self, capsys):
        assert main([]) == 2
        assert "ADAPT" in capsys.readouterr().out

    def test_model_command(self, capsys):
        assert main(["model", "--gamma", "12", "--mtbi", "20", "--recovery", "8"]) == 0
        out = capsys.readouterr().out
        assert "E[T]" in out
        assert "27.404" in out  # formula 5 at these parameters

    def test_groups_command(self, capsys):
        assert main(["groups"]) == 0
        out = capsys.readouterr().out
        assert "group-1" in out and "20" in out

    def test_placement_command(self, capsys):
        code = main(
            ["placement", "--nodes", "16", "--ratio", "0.5", "--blocks-per-node", "5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "adapt" in out and "existing" in out and "naive" in out
        assert "dedicated" in out

    def test_emulate_command(self, capsys):
        code = main(
            [
                "emulate",
                "--policy", "adapt",
                "--nodes", "12",
                "--blocks-per-node", "4",
                "--seed", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "elapsed_s" in out
        assert "locality" in out

    def test_emulate_audit_flag(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "audit.json"
        code = main(
            [
                "emulate",
                "--policy", "existing",
                "--nodes", "8",
                "--blocks-per-node", "3",
                "--seed", "2",
                "--audit", "strict",
                "--audit-out", str(out_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "audit report (strict mode) written to" in out
        payload = json.loads(out_path.read_text())
        assert payload["ok"] is True
        assert payload["mode"] == "strict"

    def test_emulate_audit_out_implies_report(self, capsys, tmp_path):
        out_path = tmp_path / "audit.json"
        code = main(
            [
                "emulate",
                "--policy", "existing",
                "--nodes", "8",
                "--blocks-per-node", "3",
                "--seed", "2",
                "--audit-out", str(out_path),
            ]
        )
        assert code == 0
        assert "report mode" in capsys.readouterr().out
        assert out_path.exists()

    def test_simulate_command(self, capsys):
        code = main(
            [
                "simulate",
                "--policy", "existing",
                "--nodes", "32",
                "--tasks-per-node", "4",
                "--seed", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "elapsed_s" in out
        hosts = SimulationConfig(node_count=32, tasks_per_node=4.0, seed=2).hosts()
        unstable = count_unstable(hosts)
        assert 0 < unstable < 32
        assert out.splitlines()[-1] == f"hosts with ρ ≥ 1: {unstable} of 32"

    def test_table1_command(self, capsys):
        code = main(["table1", "--nodes", "60", "--horizon-days", "40"])
        assert code == 0
        out = capsys.readouterr().out
        assert "MTBI" in out
        assert "160290" in out  # the paper's reference values are shown


class TestInvalidConfigValues:
    """A value the experiment config rejects is a usage error (exit 2,
    one line naming the field), not a traceback."""

    @pytest.mark.parametrize(
        "argv, field",
        [
            (["emulate", "--ratio", "1.5"], "interrupted_ratio"),
            (["simulate", "--nodes", "0"], "node_count"),
            (
                ["chaos", "--campaign", str(CAMPAIGN_PATH), "--blocks-per-node", "0"],
                "blocks_per_node",
            ),
            # Fields the deployment config checks: rejected with the rest.
            (["emulate", "--racks", "0"], "racks"),
            (["emulate", "--oversubscription", "0.5"], "oversubscription"),
            (["emulate", "--fetch-retries", "-1"], "fetch_retries"),
        ],
        ids=["emulate", "simulate", "chaos", "racks", "oversubscription", "fetch-retries"],
    )
    def test_rejected_value_is_usage_error(self, capsys, argv, field):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1 and field in errors[0]
