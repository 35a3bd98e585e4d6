"""Parallel sweep executor: equivalence, caching, and key semantics.

The determinism contract: a sweep's rows are a pure function of its cell
specs, so ``jobs=4`` must reproduce ``jobs=1`` row for row, and a cache
hit must reproduce the original result bit for bit (floats round-trip
through JSON via shortest-repr).
"""

import pytest

from repro.experiments.config import EmulationConfig, SimulationConfig, Strategy
from repro.experiments.emulation import (
    run_emulation_point,
    sweep_bandwidth,
    sweep_interrupted_ratio,
    sweep_node_count,
)
from repro.experiments.largescale import sweep_sim_block_size, sweep_sim_node_count
from repro.experiments.parallel import (
    CACHE_SALT,
    CellSpec,
    SweepExecutor,
    cell_cache_key,
    result_from_jsonable,
    result_to_jsonable,
)
from repro.util.rng import derive_seed
from repro.util.units import MB

TINY = EmulationConfig(node_count=8, interrupted_ratio=0.5, blocks_per_node=2.0, seed=9)
PAIR = (Strategy("existing", 1), Strategy("adapt", 1))


def _rows(sweep):
    return [
        (row.x, row.strategy_key, row.elapsed_values, row.locality_values, row.overhead_values)
        for row in sweep.rows
    ]


class TestCellSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            CellSpec("quantum", TINY, Strategy("adapt", 1), 0)

    def test_cache_key_sensitivity(self):
        spec = CellSpec("emulation", TINY, Strategy("adapt", 1), 3)
        base = cell_cache_key(spec)
        assert cell_cache_key(spec) == base  # stable
        assert cell_cache_key(CellSpec("emulation", TINY, Strategy("adapt", 1), 4)) != base
        assert cell_cache_key(CellSpec("emulation", TINY, Strategy("adapt", 2), 3)) != base
        other_config = TINY.with_(bandwidth_mbps=16.0)
        assert cell_cache_key(CellSpec("emulation", other_config, Strategy("adapt", 1), 3)) != base
        assert cell_cache_key(spec, salt="other-code-version") != base

    def test_config_type_in_key(self):
        # Same strategy/seed, different experiment family: distinct keys.
        emu = CellSpec("emulation", TINY, Strategy("adapt", 1), 3)
        sim = CellSpec(
            "simulation", SimulationConfig(node_count=8, tasks_per_node=2.0), Strategy("adapt", 1), 3
        )
        assert cell_cache_key(emu) != cell_cache_key(sim)


class TestJobsResolution:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert SweepExecutor().jobs == 1

    def test_env_sets_workers(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert SweepExecutor().jobs == 4

    def test_explicit_jobs_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert SweepExecutor(jobs=2).jobs == 2

    def test_invalid_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            SweepExecutor()


class TestResultRoundTrip:
    def test_json_round_trip_is_exact(self):
        result = run_emulation_point(TINY, Strategy("adapt", 1))
        rebuilt = result_from_jsonable(result_to_jsonable(result))
        assert rebuilt == result

    def test_round_trip_with_durability_activity(self):
        config = TINY.with_(
            replication_monitor=True,
            permanent_failure_rate=0.3,
            permanent_failure_horizon=150.0,
        )
        result = run_emulation_point(config, Strategy("adapt", 2))
        rebuilt = result_from_jsonable(result_to_jsonable(result))
        assert rebuilt == result
        assert rebuilt.durability.summary_row() == result.durability.summary_row()


@pytest.mark.slow
class TestParallelSerialEquivalence:
    def test_jobs4_matches_jobs1_row_for_row(self):
        serial = sweep_interrupted_ratio(
            TINY, values=(0.25, 0.5), strategies=PAIR, executor=SweepExecutor(jobs=1)
        )
        parallel = sweep_interrupted_ratio(
            TINY, values=(0.25, 0.5), strategies=PAIR, executor=SweepExecutor(jobs=4)
        )
        assert _rows(parallel) == _rows(serial)

    def test_point_through_worker_matches_in_process(self):
        direct = run_emulation_point(TINY, Strategy("adapt", 1))
        executor = SweepExecutor(jobs=2)
        spec = CellSpec("emulation", TINY, Strategy("adapt", 1), TINY.seed)
        (pooled,) = executor.run_cells([spec, spec])[:1]
        assert pooled == direct


class TestRunCache:
    def test_second_run_hits_cache_with_identical_rows(self, tmp_path):
        first_exec = SweepExecutor(jobs=1, cache_dir=tmp_path)
        first = sweep_interrupted_ratio(
            TINY, values=(0.5,), strategies=PAIR, executor=first_exec
        )
        assert first_exec.cache_hits == 0
        assert first_exec.cache_misses == 2

        second_exec = SweepExecutor(jobs=1, cache_dir=tmp_path)
        second = sweep_interrupted_ratio(
            TINY, values=(0.5,), strategies=PAIR, executor=second_exec
        )
        assert second_exec.cache_hits == 2
        assert second_exec.cache_misses == 0
        assert _rows(second) == _rows(first)

    def test_salt_change_invalidates(self, tmp_path):
        spec = CellSpec("emulation", TINY, Strategy("existing", 1), 5)
        warm = SweepExecutor(jobs=1, cache_dir=tmp_path)
        warm.run_cells([spec])
        assert warm.cache_misses == 1

        stale = SweepExecutor(jobs=1, cache_dir=tmp_path, salt="bumped-after-semantics-change")
        stale.run_cells([spec])
        assert stale.cache_hits == 0
        assert stale.cache_misses == 1
        # The original salt still hits its own entry.
        fresh = SweepExecutor(jobs=1, cache_dir=tmp_path, salt=CACHE_SALT)
        fresh.run_cells([spec])
        assert fresh.cache_hits == 1

    def test_corrupt_entry_recomputed(self, tmp_path):
        spec = CellSpec("emulation", TINY, Strategy("existing", 1), 5)
        executor = SweepExecutor(jobs=1, cache_dir=tmp_path)
        executor.run_cells([spec])
        (entry,) = tmp_path.glob("*.json")
        entry.write_text("{truncated", encoding="utf-8")
        again = SweepExecutor(jobs=1, cache_dir=tmp_path)
        (result,) = again.run_cells([spec])
        assert again.cache_misses == 1
        assert result.elapsed > 0

    def test_point_api_uses_cache(self, tmp_path):
        executor = SweepExecutor(jobs=1, cache_dir=tmp_path)
        first = run_emulation_point(TINY, Strategy("adapt", 1), executor=executor)
        second = run_emulation_point(TINY, Strategy("adapt", 1), executor=executor)
        assert executor.cache_hits == 1
        assert second == first

    def test_trace_out_bypasses_cache(self, tmp_path):
        executor = SweepExecutor(jobs=1, cache_dir=tmp_path / "cache")
        trace_path = tmp_path / "events.jsonl"
        result = run_emulation_point(
            TINY, Strategy("adapt", 1), trace_out=str(trace_path), executor=executor
        )
        assert trace_path.exists()
        assert executor.cache_hits == 0 and executor.cache_misses == 0
        assert result.elapsed > 0


class TestMixedCachedAndPending:
    def test_partial_cache_keeps_cell_order(self, tmp_path):
        specs = [
            CellSpec("emulation", TINY, Strategy("existing", 1), 5),
            CellSpec("emulation", TINY, Strategy("adapt", 1), 5),
            CellSpec("emulation", TINY, Strategy("adapt", 1), 6),
        ]
        warm = SweepExecutor(jobs=1, cache_dir=tmp_path)
        warm.run_cells([specs[1]])  # pre-warm only the middle cell

        executor = SweepExecutor(jobs=1, cache_dir=tmp_path)
        results = executor.run_cells(specs)
        assert executor.cache_hits == 1
        assert executor.cache_misses == 2
        assert [r.policy for r in results] == ["existing", "adapt", "adapt"]
        assert results[1] == warm.run_cells([specs[1]])[0]


class _Planned(Exception):
    def __init__(self, specs):
        super().__init__(len(specs))
        self.specs = specs


class _PlanOnly(SweepExecutor):
    """Captures a sweep's cell specs instead of running them."""

    def run_cells(self, specs):
        raise _Planned(list(specs))


def _plan(sweep, base, values, repetitions=2):
    with pytest.raises(_Planned) as planned:
        sweep(base, values=values, strategies=PAIR, repetitions=repetitions, executor=_PlanOnly())
    return planned.value.specs


class TestSweepPlan:
    """A sweep's cells: which config, strategy and seed each point runs."""

    def test_seed_key_is_the_axis_value_as_given(self):
        # derive_seed hashes str(key): 32 and 32.0 must seed differently.
        base = SimulationConfig(node_count=8, tasks_per_node=2, seed=4)
        specs = _plan(sweep_sim_node_count, base, (16, 32.0))
        assert [s.seed for s in specs] == [
            derive_seed(4, "fig5c", value, rep)
            for value in (16, 32.0)
            for _ in PAIR
            for rep in (0, 1)
        ]
        assert derive_seed(4, "fig5c", 32, 0) != derive_seed(4, "fig5c", 32.0, 0)
        assert [s.config.node_count for s in specs] == [16] * 4 + [32] * 4
        assert [s.strategy.key for s in specs[:4]] == ["existingx1"] * 2 + ["adaptx1"] * 2

    def test_emulation_node_count_key_is_the_axis_value_as_given(self):
        # The emulation twin: each point builds an int node count, and
        # keeps its key object, so 32.0 still seeds apart from 32.
        specs = _plan(sweep_node_count, TINY, (16, 32.0))
        assert [s.seed for s in specs] == [
            derive_seed(9, "fig3c/4c", value, rep)
            for value in (16, 32.0)
            for _ in PAIR
            for rep in (0, 1)
        ]
        assert derive_seed(9, "fig3c/4c", 32, 0) != derive_seed(9, "fig3c/4c", 32.0, 0)
        assert [s.config.node_count for s in specs] == [16] * 4 + [32] * 4
        assert all(type(s.config.node_count) is int for s in specs)

    def test_emulation_points_share_seeds_across_strategies(self):
        specs = _plan(sweep_bandwidth, TINY, (4.0, 32), repetitions=1)
        assert [(s.kind, s.config.bandwidth_mbps, s.seed) for s in specs] == [
            ("emulation", value, derive_seed(9, "fig3b/4b", value, 0))
            for value in (4.0, 32)
            for _ in PAIR
        ]

    def test_block_size_points_keep_input_per_node(self):
        base = SimulationConfig(node_count=8, tasks_per_node=10.0, seed=4)
        specs = _plan(sweep_sim_block_size, base, (32 * MB, 128.0 * MB), repetitions=1)
        blocks = [s.config.block_size_bytes for s in specs]
        assert blocks == [32 * MB] * 2 + [128 * MB] * 2
        assert [s.config.tasks_per_node for s in specs] == [20.0] * 2 + [5.0] * 2
        assert [s.seed for s in specs] == [
            derive_seed(4, "fig5b", block, 0) for block in blocks
        ]

    def test_repetitions_checked_before_any_cell(self):
        with pytest.raises(ValueError, match="repetitions"):
            _plan(sweep_interrupted_ratio, TINY, (0.5,), repetitions=0)
