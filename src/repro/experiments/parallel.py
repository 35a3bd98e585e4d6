"""Parallel sweep execution with a content-addressed run cache.

The paper's evaluation is a grid of *independent* (configuration,
strategy, seed) simulation cells — Figures 3–5 and Table 1 never share
state between cells. :class:`SweepExecutor` exploits that: a sweep is
flattened into a list of picklable :class:`CellSpec` records, fanned out
over a :class:`concurrent.futures.ProcessPoolExecutor`, and reassembled
**keyed by cell position** — never by completion order — so parallel
output is byte-identical to a serial run (every cell is a deterministic
function of its spec; the golden-determinism tests assert the equality
end-to-end).

``jobs=1`` bypasses the pool entirely and runs cells in-process, so CI,
debuggers, and profilers see exactly the code path they always did. The
worker count comes from (in priority order) an explicit ``jobs=``
argument, the CLI's ``--jobs``, or the ``REPRO_JOBS`` environment
variable.

The run cache (``cache_dir=`` / ``--cache-dir``) is content-addressed:
each cell hashes its config dataclass, strategy, seed, and a code-version
salt to a JSON result file. Re-running a benchmark after an unrelated
edit skips every completed cell; bumping :data:`CACHE_SALT` (done
whenever simulation semantics change) invalidates all prior entries at
once. Cached results round-trip through JSON exactly — Python floats
serialise via shortest-repr, so a cache hit reproduces the original
``MapPhaseResult`` bit for bit.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.experiments.config import EmulationConfig, SimulationConfig, Strategy
from repro.experiments.results import ExperimentRow, SweepResult
from repro.runtime.runner import MapPhaseResult
from repro.simulator.metrics import DurabilityMetrics, OverheadBreakdown
from repro.util.rng import derive_seed
from repro.util.validation import env_override

#: Code-version salt folded into every cache key. Bump whenever a change
#: alters simulated trajectories (placement, scheduling, network,
#: failure semantics, ...) so stale results cannot leak into new sweeps.
CACHE_SALT = "adapt-cells-v1"

ExperimentConfig = Union[EmulationConfig, SimulationConfig]


@dataclass(frozen=True)
class CellSpec:
    """One independent sweep cell: everything a worker needs, picklable.

    ``kind`` selects the experiment driver (``"emulation"`` runs
    :func:`repro.experiments.emulation.run_emulation_point`,
    ``"simulation"`` runs
    :func:`repro.experiments.largescale.run_simulation_point`); the
    ``config`` dataclass, ``strategy``, and resolved ``seed`` pin the
    cell's entire trajectory.
    """

    kind: str
    config: ExperimentConfig
    strategy: Strategy
    seed: int

    def __post_init__(self) -> None:
        if self.kind not in ("emulation", "simulation"):
            raise ValueError(f"unknown cell kind {self.kind!r}")


def execute_cell(spec: CellSpec) -> MapPhaseResult:
    """Run one cell to completion (the worker-process entry point)."""
    # Imports are deferred: this module is imported *by* the drivers it
    # dispatches to, and workers only pay for the branch they take.
    if spec.kind == "emulation":
        from repro.experiments.emulation import run_emulation_point

        return run_emulation_point(spec.config, spec.strategy, seed=spec.seed)
    from repro.experiments.largescale import run_simulation_point

    return run_simulation_point(spec.config, spec.strategy, seed=spec.seed)


def cell_cache_key(spec: CellSpec, salt: str = CACHE_SALT) -> str:
    """Content hash identifying a cell's result file.

    Covers the config dataclass (field by field), the config *type* (the
    same field values mean different things to different drivers), the
    strategy, the resolved seed, and the code-version salt.
    """
    payload = {
        "kind": spec.kind,
        "config_type": type(spec.config).__name__,
        "config": dataclasses.asdict(spec.config),
        "policy": spec.strategy.policy,
        "replication": spec.strategy.replication,
        "seed": spec.seed,
        "salt": salt,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# -- MapPhaseResult <-> JSON ---------------------------------------------------


def result_to_jsonable(result: MapPhaseResult) -> Dict[str, object]:
    """Flatten a result to JSON-safe primitives (exact float round-trip)."""
    payload = dataclasses.asdict(result)
    durability = payload.get("durability")
    if durability is not None:
        # DurabilityMetrics carries a set of lost block ids; JSON needs a list.
        durability["_lost_ids"] = sorted(durability["_lost_ids"])
    return payload


def result_from_jsonable(payload: Dict[str, object]) -> MapPhaseResult:
    """Rebuild a :class:`MapPhaseResult` from :func:`result_to_jsonable`."""
    fields = dict(payload)
    fields["breakdown"] = OverheadBreakdown(**fields["breakdown"])  # type: ignore[arg-type]
    durability = fields.get("durability")
    if durability is not None:
        durability = dict(durability)  # type: ignore[arg-type]
        durability["_lost_ids"] = set(durability["_lost_ids"])
        fields["durability"] = DurabilityMetrics(**durability)
    return MapPhaseResult(**fields)  # type: ignore[arg-type]


class SweepExecutor:
    """Runs sweep cells — serially, in parallel, and/or from cache.

    One executor can serve many sweeps; its hit/miss counters accumulate
    across :meth:`run_cells` calls (benchmarks report them per session).
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache_dir: Optional[Union[str, Path]] = None,
        salt: str = CACHE_SALT,
    ) -> None:
        self.jobs = env_override("REPRO_JOBS", 1) if jobs is None else max(int(jobs), 1)
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.salt = salt
        self.cache_hits = 0
        self.cache_misses = 0

    def run_cell(self, spec: CellSpec) -> MapPhaseResult:
        """Run a single cell through the cache (never forks for one cell)."""
        cached = self._cache_load(spec)
        if cached is not None:
            self.cache_hits += 1
            return cached
        self.cache_misses += 1
        result = execute_cell(spec)
        self._cache_store(spec, result)
        return result

    def run_cells(self, specs: Sequence[CellSpec]) -> List[MapPhaseResult]:
        """Run every cell; results align index-for-index with ``specs``.

        Cached cells never reach the pool. Uncached cells run either
        in-process (``jobs=1``) or across worker processes; either way the
        returned list is ordered by spec position, so downstream
        aggregation is oblivious to scheduling.
        """
        results: List[Optional[MapPhaseResult]] = [None] * len(specs)
        pending: List[int] = []
        for index, spec in enumerate(specs):
            cached = self._cache_load(spec)
            if cached is not None:
                self.cache_hits += 1
                results[index] = cached
            else:
                self.cache_misses += 1
                pending.append(index)
        if pending:
            if self.jobs == 1:
                for index in pending:
                    results[index] = execute_cell(specs[index])
            else:
                workers = min(self.jobs, len(pending))
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    futures = [
                        (index, pool.submit(execute_cell, specs[index]))
                        for index in pending
                    ]
                    for index, future in futures:
                        results[index] = future.result()
            for index in pending:
                result = results[index]
                assert result is not None
                self._cache_store(specs[index], result)
        ordered: List[MapPhaseResult] = []
        for result in results:
            assert result is not None  # every index is cached or pending
            ordered.append(result)
        return ordered

    # -- cache internals -------------------------------------------------------

    def _cache_path(self, spec: CellSpec) -> Optional[Path]:
        if self.cache_dir is None:
            return None
        return self.cache_dir / f"{cell_cache_key(spec, self.salt)}.json"

    def _cache_load(self, spec: CellSpec) -> Optional[MapPhaseResult]:
        path = self._cache_path(spec)
        if path is None or not path.exists():
            return None
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None  # corrupt/truncated entry: recompute and overwrite
        return result_from_jsonable(payload)

    def _cache_store(self, spec: CellSpec, result: MapPhaseResult) -> None:
        path = self._cache_path(spec)
        if path is None:
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        blob = json.dumps(result_to_jsonable(result))
        # Write-then-rename so concurrent sweeps sharing a cache directory
        # never observe a half-written entry.
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        tmp.write_text(blob, encoding="utf-8")
        os.replace(tmp, path)


#: One sweep point: its rows' x value, the key its repetition seeds derive
#: from, and the config its cells run.
SweepPoint = Tuple[float, object, ExperimentConfig]


def run_sweep(
    kind: str,
    name: str,
    x_label: str,
    points: Iterable[SweepPoint],
    strategies: Sequence[Strategy],
    repetitions: int,
    executor: Optional[SweepExecutor] = None,
) -> SweepResult:
    """Run one row per (point, strategy), averaged over ``repetitions`` cells.

    Repetition ``rep`` of a point runs every strategy at
    ``derive_seed(config.seed, name, seed_key, rep)``, so strategies face
    identical interruption realisations. ``derive_seed`` hashes
    ``str(seed_key)``: each point must keep its exact key object (``32``
    and ``32.0`` seed differently).
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    runner = executor if executor is not None else SweepExecutor()
    sweep = SweepResult(name=name, x_label=x_label)
    rows: List[ExperimentRow] = []
    specs: List[CellSpec] = []
    for x, seed_key, config in points:
        for strategy in strategies:
            row = ExperimentRow(
                x=x,
                strategy_key=strategy.key,
                policy=strategy.policy,
                replication=strategy.replication,
            )
            sweep.rows.append(row)
            for rep in range(repetitions):
                seed = derive_seed(config.seed, name, seed_key, rep)
                rows.append(row)
                specs.append(CellSpec(kind, config, strategy, seed))
    for row, result in zip(rows, runner.run_cells(specs), strict=True):
        row.add(result)
    return sweep
