"""Tests of the benchmark harness itself: ``pytest bench/``.

Cells run at reduced node counts, so the whole file takes seconds.
"""

from __future__ import annotations

import json
import pkgutil
import time
from typing import Any, Dict, List, Set

import pytest

import compare
import repro
import run
import tracing
from repro.experiments.emulation import run_emulation_point
from repro.experiments.largescale import run_simulation_point
from repro.simulator.engine import Simulator
from repro.simulator.events import EventBus
from workloads import DEFAULT_SEED, WORKLOADS, run_cell

#: The workloads' knobs at a fraction of their nodes and blocks.
SMALL = {
    "emu-fig3": {"node_count": 16, "blocks_per_node": 4.0},
    "sim-fig5": {"node_count": 24, "tasks_per_node": 8.0},
    "emu-clos-durability": {"node_count": 16, "blocks_per_node": 4.0},
}
SEED = 3

#: Packages that never run inside a cell (tooling) or only inside another
#: layer's span (leaf helpers), so they are no layer of their own.
OUTSIDE_CELLS = ("repro.devtools", "repro.cli", "repro.__main__", "repro.util")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_phase_split_driver_matches_the_experiment_drivers(name: str) -> None:
    # At the default seed the run seed also draws the SETI population,
    # exactly as run_simulation_point does.
    workload = WORKLOADS[name]
    config = workload.config(**SMALL[name])
    for strategy in workload.cells:
        split = run_cell(workload, strategy, DEFAULT_SEED, **SMALL[name]).result
        if workload.kind == "emulation":
            whole = run_emulation_point(config, strategy, seed=DEFAULT_SEED, audit=workload.audit)
        else:
            whole = run_simulation_point(config, strategy, seed=DEFAULT_SEED)
        assert split == whole


def test_run_seeds_share_no_cell_seed() -> None:
    for workload in WORKLOADS.values():
        seen: Set[int] = set()
        for seed in range(12):
            cell_seeds = set(workload.cell_seeds(seed))
            assert len(cell_seeds) == workload.seeds_per_pass
            assert not cell_seeds & seen
            seen |= cell_seeds


def test_the_seed_changes_the_run_but_not_the_seti_population() -> None:
    workload = WORKLOADS["sim-fig5"]
    strategy = workload.cells[0]
    one, two = (run_cell(workload, strategy, seed, **SMALL["sim-fig5"]) for seed in (2, 3))
    assert one.result.seed == 2 and two.result.seed == 3
    assert one.digest != two.digest
    # The population comes from the config's own seed, whatever the run seed.
    assert workload.config(**SMALL["sim-fig5"]).seed == DEFAULT_SEED


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracing_only_observes_and_attributes_every_span(name: str) -> None:
    workload = WORKLOADS[name]
    untraced = [run_cell(workload, s, SEED, **SMALL[name]).digest for s in workload.cells]
    schedule_at, publish = Simulator.schedule_at, EventBus.publish
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        start = time.perf_counter()
        traced = [
            run_cell(workload, s, SEED, call=tracer.call, **SMALL[name]).digest
            for s in workload.cells
        ]
        wall = time.perf_counter() - start
    finally:
        undo()
    assert (Simulator.schedule_at, EventBus.publish) == (schedule_at, publish)
    assert traced == untraced
    assert sum(tracer.self_s.values()) == pytest.approx(tracer.attributed_s, rel=1e-9)
    assert 0.0 <= wall - tracer.attributed_s < 0.05 * wall
    busy = {layer for layer, calls in tracer.calls.items() if calls}
    expected = set(tracing.LAYERS) - {"invariants"}
    if workload.audit is not None:
        expected.add("invariants")
    assert busy == expected
    assert tracer.counts["placement.blocks"] > 0
    assert tracer.fired["beat"] > 0


def test_every_simulation_module_maps_to_a_layer() -> None:
    modules = [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if not info.ispkg and not info.name.startswith(OUTSIDE_CELLS)
    ]
    assert "repro.simulator.network" in modules
    for module in modules:
        assert tracing.layer_of_module(module) in tracing.LAYERS


def test_unmapped_callables_raise_instead_of_landing_in_a_bucket() -> None:
    with pytest.raises(KeyError):
        tracing.layer_of_module("repro.simulator.brand_new")
    tracer = tracing.Tracer()
    with pytest.raises(KeyError):
        tracer.layer_of(lambda: None)  # defined in this test module
    assert tracer.layer_of(Simulator(start_time=0.0).step) == "engine"


def test_benchmark_json_matches_the_harness() -> None:
    spec = json.loads(run.SPEC_PATH.read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    bounds = {}
    for metric in spec["end_to_end"]:
        unit, better = run.END_TO_END[metric["name"]]
        assert (metric["unit"], metric["better"]) == (unit, better)
        assert 0.0 < metric["bound"] <= 0.25
        bounds[metric["name"]] = metric["bound"]
    assert bounds["setup_s"] == max(bounds.values())
    units = run.layer_metric_units(tracing.LAYERS)
    for metric in spec["per_layer"]:
        assert (metric["unit"], metric["better"]) == units[metric["name"]]


def _pass(digests: Dict[str, str], map_s: List[float]) -> Dict[str, Any]:
    cells = []
    for (key, digest), seconds in zip(digests.items(), map_s, strict=True):
        cells.append(
            {
                "cell": key, "digest": digest, "setup_s": 0.01, "ingest_s": 0.1,
                "map_s": seconds, "report_s": 0.0, "wall_s": 0.11 + seconds,
                "events": 1000, "map_events": 900,
            }
        )
    return {"cells": cells, "peak_rss_mb": 30.0}


def test_workload_run_fails_cells_that_miss_the_pin_or_disagree() -> None:
    runs = run.WorkloadRun(pins={"a": "pinned"})
    runs.add(_pass({"a": "pinned", "b": "x"}, [1.0, 1.0]))
    assert runs.failed == 0
    runs.add(_pass({"a": "pinned", "b": "y"}, [1.0, 1.0]))
    runs.add(_pass({"a": "other", "b": "x"}, [1.0, 1.0]))
    runs.add({"cells": [{"cell": "a", "error": "InvariantViolationError: boom"}]}, traced=True)
    assert runs.attempted == 7
    assert runs.failed == 3
    assert runs.end_to_end()["fail_rate"]["value"] == pytest.approx(3 / 7)


def test_values_are_medians_of_the_per_pass_sums() -> None:
    runs = run.WorkloadRun(pins={})
    for map_s in ([1.0, 3.0], [2.0, 2.0], [3.0, 3.0]):
        runs.add(_pass({"a": "x", "b": "y"}, map_s))
    metrics = runs.end_to_end()
    assert metrics["map_s"]["values"] == [4.0, 4.0, 6.0]
    assert metrics["map_s"]["value"] == pytest.approx(4.0)
    assert metrics["events_per_s"]["values"] == pytest.approx([450.0, 450.0, 300.0])
    assert metrics["events_per_s"]["value"] == pytest.approx(450.0)
    assert metrics["setup_s"]["value"] == pytest.approx(0.02)
    assert metrics["wall_s"]["value"] == pytest.approx(4.22)


def test_write_table_replaces_only_the_marked_section(tmp_path: Any) -> None:
    path = tmp_path / "README.md"
    path.write_text(f"head\n{run.TABLE_BEGIN}\nold\n{run.TABLE_END}\ntail\n", encoding="utf-8")
    run.write_table(path, "new\n")
    assert path.read_text(encoding="utf-8") == f"head\n{run.TABLE_BEGIN}\nnew\n{run.TABLE_END}\ntail\n"
    path.write_text("no markers\n", encoding="utf-8")
    with pytest.raises(ValueError):
        run.write_table(path, "new\n")
    assert path.read_text(encoding="utf-8") == "no markers\n"


def _summary(name: str, values: List[float]) -> Dict[str, Any]:
    unit, better = run.END_TO_END[name]
    summary = run.summarize(values)
    return {"value": summary["median"], **summary, "unit": unit, "better": better, "values": values}


def _record(metrics: Dict[str, List[float]], python: str = "3.11.4", seed: int = 1) -> Dict[str, Any]:
    return {
        "env": {"python": python},
        "workloads": {
            "w": {
                "knobs": {"seed": seed},
                "metrics": {name: _summary(name, values) for name, values in metrics.items()},
            }
        },
    }


SPEC = {
    "end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "events_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    ]
}


def _verdicts(base: Dict[str, Any], new: Dict[str, Any]) -> Dict[str, str]:
    return {metric: result for _w, metric, result, _b, _n in compare.compare(base, new, SPEC)}


def test_compare_verdicts_on_synthetic_records() -> None:
    steady = [100.0, 101.0, 102.0, 103.0]
    base = _record({"wall_s": steady, "events_per_s": steady, "fail_rate": [0.0]})
    assert _verdicts(base, base) == {
        "wall_s": "unchanged", "events_per_s": "unchanged", "fail_rate": "unchanged",
    }
    slower = [v * 1.3 for v in steady]
    new = _record({"wall_s": slower, "events_per_s": slower, "fail_rate": [0.1]})
    assert _verdicts(base, new) == {
        "wall_s": "worse", "events_per_s": "better", "fail_rate": "worse",
    }
    noisy = _record({"wall_s": [100.0, 150.0, 160.0, 170.0]})
    assert _verdicts(base, noisy)["wall_s"] == "unresolved"
    clear_win = _record({"wall_s": [50.0, 70.0, 75.0, 80.0]})
    assert _verdicts(noisy, clear_win)["wall_s"] == "better"


def test_compare_applies_the_absolute_floor() -> None:
    base = _record({"setup_s": [0.010, 0.010, 0.011]})
    new = _record({"setup_s": [0.020, 0.020, 0.021]})
    assert _verdicts(base, new)["setup_s"] == "unchanged"
    base_setup = base["workloads"]["w"]["metrics"]["setup_s"]
    new_setup = new["workloads"]["w"]["metrics"]["setup_s"]
    assert compare.verdict(base_setup, new_setup, 0.25, "lower") == "worse"


def test_compare_refuses_records_that_are_not_like_for_like(tmp_path: Any) -> None:
    base = _record({"wall_s": [100.0, 101.0]})
    paths = {}
    for label, record in {
        "base": base,
        "python": _record({"wall_s": [100.0, 101.0]}, python="3.12.1"),
        "seed": _record({"wall_s": [100.0, 101.0]}, seed=2),
        "worse": _record({"wall_s": [150.0, 151.0]}),
    }.items():
        paths[label] = tmp_path / f"{label}.json"
        paths[label].write_text(json.dumps(record), encoding="utf-8")
    assert compare.main([str(paths["base"]), str(paths["base"])]) == 0
    assert compare.main([str(paths["base"]), str(paths["python"])]) == 2
    assert compare.main([str(paths["base"]), str(paths["seed"])]) == 2
    assert compare.main([str(paths["base"]), str(paths["worse"])]) == 1
