"""A stopped cell frees itself.

Serial sweeps (every bench pass, ``--jobs 1``, each sweep-executor
worker) run one cell after another in one process. ``Cluster.stop()``
cancels every armed event and releases the wiring, and no task points at
a retired attempt, so a finished cell that the caller drops is freed by
reference counting: the cycle collector finds nothing of it, and a
serial sweep holds one cell at a time (DESIGN.md §10, "Teardown").
"""

import gc
from collections import Counter

import pytest

from repro.availability.generator import build_group_hosts
from repro.experiments.config import EmulationConfig, SimulationConfig, Strategy
from repro.experiments.emulation import run_emulation_point
from repro.experiments.largescale import run_simulation_point
from repro.runtime.cluster import Cluster, build_cluster

CELLS = {
    "simulation": lambda: run_simulation_point(
        SimulationConfig(node_count=32, tasks_per_node=10.0), Strategy("existing", 1), seed=1
    ),
    "emulation": lambda: run_emulation_point(
        EmulationConfig(node_count=16), Strategy("adapt", 1), seed=1
    ),
    "clos-durability": lambda: run_emulation_point(
        EmulationConfig(
            node_count=32,
            topology="clos",
            racks=8,
            oversubscription=4.0,
            rack_aware_placement=True,
            replication_monitor=True,
            permanent_failure_rate=0.05,
            permanent_failure_horizon=1200.0,
        ),
        Strategy("adapt", 2),
        seed=1,
        audit="strict",
    ),
}


def cyclic_garbage(run_cell):
    """Run a cell with the collector off, drop it, and count the ``repro``
    objects by type that only the cycle collector could free."""
    gc.collect()
    gc.disable()
    try:
        run_cell()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        found = Counter(
            type(obj).__qualname__
            for obj in gc.garbage
            if type(obj).__module__.startswith("repro.")
        )
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    return found


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_dropped_cell_leaves_no_cyclic_garbage(monkeypatch, cell):
    live_after_stop = []
    stop = Cluster.stop

    def checked(cluster):
        stop(cluster)
        sim = cluster.sim
        live_after_stop.append(sim.pending_events - sim.cancelled_pending)

    monkeypatch.setattr(Cluster, "stop", checked)
    garbage = cyclic_garbage(CELLS[cell])
    assert live_after_stop == [0]
    assert not garbage, dict(garbage)


def test_every_subscriber_is_a_registered_service(wiring_config):
    """The runtime twin of simlint C002: every object the bus calls back
    is a service the cluster starts and stops, so teardown reaches it."""
    cluster = build_cluster(build_group_hosts(6, 0.5), wiring_config)
    registered = {id(service) for service in cluster.services}
    owners = {}
    for _event, _key, _phase, handler in cluster.bus.iter_subscriptions():
        owner = getattr(handler, "__self__", None)
        if owner is not None:
            owners[id(owner)] = owner
    unregistered = [type(owner).__name__ for key, owner in owners.items() if key not in registered]
    assert owners
    assert not unregistered, unregistered
    cluster.stop()
