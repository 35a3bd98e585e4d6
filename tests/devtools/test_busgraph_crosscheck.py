"""The statically-extracted bus graph must match the wiring that runs.

simlint's contract rules (C001-C004) are only as good as its graph
extraction, so this suite builds real clusters and compares the live
subscriptions (:meth:`EventBus.iter_subscriptions`) against the graph
extracted from ``src/``. Every runtime subscription must appear as
a static subscribe site with the same (event, owner class, handler,
phase), and every static site in ``cluster.py`` must be reachable by
some supported configuration.
"""

from pathlib import Path

import pytest

from repro.availability.generator import build_group_hosts
from repro.devtools.simlint.busgraph import to_dot, to_json
from repro.devtools.simlint.engine import lint_paths
from repro.runtime.cluster import build_cluster

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def static_graph():
    result = lint_paths([REPO_ROOT / "src"], root=REPO_ROOT)
    assert result.graph is not None
    return result.graph


def _static_tuples(graph):
    return {
        (site.event, site.owner_class, site.handler, site.phase)
        for site in graph.subscribers
        if site.event is not None
    }


def _runtime_tuples(config):
    """(event, owner class, handler, phase) names of every live subscription."""
    cluster = build_cluster(build_group_hosts(6, 0.5), config)
    tuples = set()
    for event_type, _key, phase, handler in cluster.bus.iter_subscriptions():
        owner = getattr(handler, "__self__", None)
        tuples.add(
            (
                event_type.__name__,
                None if owner is None else type(owner).__name__,
                getattr(handler, "__name__", repr(handler)),
                phase.name,
            )
        )
    return tuples


class TestRuntimeSubsetOfStatic:
    def test_every_live_subscription_was_extracted(self, static_graph, wiring_config):
        static = _static_tuples(static_graph)
        missing = _runtime_tuples(wiring_config) - static
        assert not missing, (
            "live subscriptions the static graph failed to extract: "
            f"{sorted(missing, key=str)}"
        )


class TestStaticSubsetOfRuntime:
    def test_every_cluster_wiring_site_is_reachable(self, static_graph, wiring_configs):
        """Each subscribe() in cluster.py fires under some supported config."""
        wiring = {
            (site.event, site.owner_class, site.handler, site.phase)
            for site in static_graph.subscribers
            if site.event is not None and site.module.endswith("runtime/cluster.py")
        }
        live = set().union(*(_runtime_tuples(config) for config in wiring_configs.values()))
        dead = wiring - live
        assert not dead, f"static subscribe sites no configuration wires: {sorted(dead, key=str)}"


class TestGraphOutputs:
    def test_known_wiring_appears_in_graph(self, static_graph):
        events = set(static_graph.events)
        assert {"NodeDown", "NodeUp", "PermanentFailure", "BlockLost"} <= events
        publishers = {site.event for site in static_graph.publishers}
        assert "NodeDown" in publishers

    def test_json_and_dot_are_deterministic(self, static_graph):
        assert to_json(static_graph) == to_json(static_graph)
        dot = to_dot(static_graph)
        assert dot == to_dot(static_graph)
        assert "NodeDown" in dot
