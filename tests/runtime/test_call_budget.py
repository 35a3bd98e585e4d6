"""Work gate: Python-level calls per map-phase event.

Wall time on a shared machine is too noisy to gate a per-event cost in
tier-1, but the number of calls the interpreter makes per event is
deterministic: cProfile counts every Python and C-level call inside
``Cluster.run_until_job_done``, and dividing by the events the map phase
fired gives the plumbing each event pays for (DESIGN.md §10, "Per-event
cost"). The invariant auditor is forced off so the count covers the
plain task path whatever ``REPRO_AUDIT`` says.
"""

import cProfile
import pstats

from repro.experiments.config import EmulationConfig, SimulationConfig, Strategy
from repro.experiments.emulation import run_emulation_point
from repro.experiments.largescale import run_simulation_point
from repro.runtime.cluster import Cluster

#: Calls per map-phase event for each cell pair at seed 1, measured on
#: Python 3.11: a 64-node SimulationConfig pair went from 42.1 to 21.8
#: when the per-event plumbing was cut, a 16-node EmulationConfig pair
#: from 42.5 to 28.5. Python 3.10 counts the same and 3.12 slightly fewer
#: (21.7 and 28.4). Each bound sits between the parent's count and the
#: change's, with room on both sides.
MAX_CALLS_PER_EVENT = {"simulation": 30.0, "emulation": 35.0}

PAIR = (Strategy("existing", 1), Strategy("adapt", 1))


def calls_per_map_event(monkeypatch, run_cell):
    totals = {"calls": 0, "events": 0}
    run_until_job_done = Cluster.run_until_job_done

    def profiled(cluster, *args, **kwargs):
        before = cluster.sim.events_fired
        profile = cProfile.Profile()
        profile.enable()
        try:
            run_until_job_done(cluster, *args, **kwargs)
        finally:
            profile.disable()
        totals["calls"] += pstats.Stats(profile).total_calls
        totals["events"] += cluster.sim.events_fired - before

    monkeypatch.delenv("REPRO_AUDIT", raising=False)
    monkeypatch.setattr(Cluster, "run_until_job_done", profiled)
    for strategy in PAIR:
        run_cell(strategy)
    assert totals["events"] > 10_000
    return totals["calls"] / totals["events"]


def test_simulation_pair_calls_per_event(monkeypatch):
    per_event = calls_per_map_event(
        monkeypatch,
        lambda strategy: run_simulation_point(SimulationConfig(node_count=64), strategy, seed=1),
    )
    assert per_event < MAX_CALLS_PER_EVENT["simulation"], f"{per_event:.1f} calls per event"


def test_emulation_pair_calls_per_event(monkeypatch):
    per_event = calls_per_map_event(
        monkeypatch,
        lambda strategy: run_emulation_point(EmulationConfig(node_count=16), strategy, seed=1),
    )
    assert per_event < MAX_CALLS_PER_EVENT["emulation"], f"{per_event:.1f} calls per event"
