"""Tests for the end-to-end map-phase runner."""

import pytest

from repro.availability.generator import build_group_hosts
from repro.core.placement import AdaptPlacement
from repro.mapreduce.job import JobConf
from repro.runtime.cluster import ClusterConfig
from repro.runtime.runner import run_map_phase
from repro.workloads import TerasortWorkload


class TestRunMapPhase:
    def test_basic_run(self):
        hosts = build_group_hosts(8, 0.5)
        result = run_map_phase(hosts, ClusterConfig(seed=1), "existing", blocks_per_node=4)
        assert result.policy == "existing"
        assert result.num_tasks == 32
        assert result.elapsed > 0
        assert 0.0 <= result.data_locality <= 1.0

    def test_policy_object_accepted(self):
        hosts = build_group_hosts(6, 0.5)
        result = run_map_phase(
            hosts, ClusterConfig(seed=1), AdaptPlacement(), blocks_per_node=4
        )
        assert result.policy == "adapt"

    def test_explicit_block_count(self):
        hosts = build_group_hosts(4, 0.0)
        result = run_map_phase(hosts, ClusterConfig(seed=1), "existing", num_blocks=10)
        assert result.num_tasks == 10

    def test_overhead_ratios_present(self):
        hosts = build_group_hosts(6, 0.5)
        result = run_map_phase(hosts, ClusterConfig(seed=2), "existing", blocks_per_node=4)
        ratios = result.overhead_ratios
        assert set(ratios) == {"rework", "recovery", "migration", "misc", "total"}
        assert ratios["total"] == pytest.approx(
            ratios["rework"] + ratios["recovery"] + ratios["migration"] + ratios["misc"]
        )

    def test_summary_row(self):
        hosts = build_group_hosts(4, 0.0)
        row = run_map_phase(hosts, ClusterConfig(seed=1), "existing", blocks_per_node=2).summary_row()
        assert row["policy"] == "existing"
        assert row["nodes"] == 4
        assert "migration_overhead" in row

    def test_workload_changes_gamma(self):
        hosts = build_group_hosts(4, 0.0)
        slow = run_map_phase(
            hosts, ClusterConfig(seed=1), "existing", blocks_per_node=2,
            workload=TerasortWorkload(),
        )
        fast = run_map_phase(
            hosts, ClusterConfig(seed=1), "existing", blocks_per_node=2,
            workload=TerasortWorkload(seconds_per_mb=0.1),
        )
        assert fast.elapsed < slow.elapsed

    def test_deterministic_given_seed(self):
        hosts = build_group_hosts(8, 0.5)
        a = run_map_phase(hosts, ClusterConfig(seed=7), "adapt", blocks_per_node=4)
        b = run_map_phase(hosts, ClusterConfig(seed=7), "adapt", blocks_per_node=4)
        assert a.elapsed == b.elapsed
        assert a.data_locality == b.data_locality

    def test_seed_changes_outcome(self):
        hosts = build_group_hosts(8, 0.5)
        a = run_map_phase(hosts, ClusterConfig(seed=7), "existing", blocks_per_node=4)
        b = run_map_phase(hosts, ClusterConfig(seed=8), "existing", blocks_per_node=4)
        assert a.elapsed != b.elapsed

    def test_replication(self):
        hosts = build_group_hosts(8, 0.5)
        result = run_map_phase(
            hosts, ClusterConfig(seed=1), "existing", replication=2, blocks_per_node=4
        )
        assert result.replication == 2

    def test_custom_job_conf(self):
        hosts = build_group_hosts(4, 0.5)
        conf = JobConf(name="custom")
        result = run_map_phase(
            hosts, ClusterConfig(seed=1), "existing", blocks_per_node=2, job_conf=conf
        )
        assert result.elapsed > 0

    def test_audit_report_exported(self, tmp_path):
        import json

        hosts = build_group_hosts(6, 0.5)
        out = tmp_path / "audit.json"
        result = run_map_phase(
            hosts, ClusterConfig(seed=2), "existing", blocks_per_node=3,
            audit_out=str(out),  # implies report mode
        )
        assert result.elapsed > 0
        payload = json.loads(out.read_text())
        assert payload["mode"] == "report"
        assert payload["ok"] is True
        assert payload["final_audit_run"] is True

    def test_audit_strict_clean_run(self):
        hosts = build_group_hosts(6, 0.5)
        result = run_map_phase(
            hosts, ClusterConfig(seed=2), "existing", blocks_per_node=3, audit="strict"
        )
        assert result.elapsed > 0

    def test_audit_does_not_perturb_trajectory(self):
        hosts = build_group_hosts(6, 0.5)
        plain = run_map_phase(hosts, ClusterConfig(seed=4), "adapt", blocks_per_node=3)
        audited = run_map_phase(
            hosts, ClusterConfig(seed=4), "adapt", blocks_per_node=3, audit="strict"
        )
        assert audited.elapsed == plain.elapsed
        assert audited.data_locality == plain.data_locality

    def test_warmup_with_estimated_predictor(self):
        # Estimated mode + warmup: the predictor must learn during warmup
        # that interrupted nodes are flaky, before ingest happens.
        hosts = build_group_hosts(6, 0.5)
        config = ClusterConfig(seed=3, oracle_estimates=False)
        result = run_map_phase(
            hosts, config, "adapt", blocks_per_node=3, warmup_seconds=300.0
        )
        assert result.elapsed > 0
