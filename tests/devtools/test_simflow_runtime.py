"""Runtime effect tracing: observed handler effects ⊆ static effect sets.

The flow rules (F001/F002) are only as sound as the effect extraction in
:mod:`repro.devtools.simflow.effects`, so — mirroring how
``test_busgraph_crosscheck.py`` validates the bus graph — this suite runs
real golden scenarios under :class:`EffectRecorder` and asserts that
every field a live handler actually read or wrote appears in its static
(transitively closed) effect set.
"""

from pathlib import Path

import pytest

from repro.availability.generator import build_group_hosts
from repro.devtools.simflow.runtime import EffectRecorder, compare_observed_to_static
from repro.devtools.simlint.engine import lint_paths
from repro.mapreduce.job import JobConf, MapJob
from repro.runtime.cluster import ClusterConfig, build_cluster
from repro.simulator.events import EventBus, NodeDown, Phase
from repro.simulator.scenarios import ChaosCampaign, NetworkPartition

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Heartbeat detection, the replication monitor and permanent failures:
#: the widest handler set the flat topology wires.
#: The strict auditor's bus tap reads other services' fields from inside
#: nested publishes; none of that may be attributed to the handler.
CONFIG_HEARTBEAT = ClusterConfig(
    seed=11,
    audit="strict",
    detection="heartbeat",
    replication_monitor=True,
    permanent_failure_rate=0.2,
)
#: Oracle detection plus a chaos partition (the chaos-engine handlers).
CONFIG_ORACLE_CHAOS = ClusterConfig(
    seed=11,
    detection="oracle",
    chaos=ChaosCampaign(
        name="effects",
        scenarios=(NetworkPartition(start=5.0, duration=3.0, count=1),),
    ),
)


@pytest.fixture(scope="module")
def static_index():
    return lint_paths([REPO_ROOT / "src"], root=REPO_ROOT).corpus.effects


def _traced_run(config):
    cluster = build_cluster(build_group_hosts(6, 0.5), config)
    recorder = EffectRecorder()
    recorder.install(cluster.bus)
    try:
        cluster.sim.run(until=0.0)
        f = cluster.client.copy_from_local("in", num_blocks=12)
        job = MapJob.uniform(JobConf(), f, 30.0)
        cluster.jobtracker.submit(job)
        cluster.run_until_job_done()
        cluster.stop()
    finally:
        recorder.uninstall()
    return recorder


class TestObservedSubsetOfStatic:
    @pytest.mark.parametrize(
        "config",
        [CONFIG_HEARTBEAT, CONFIG_ORACLE_CHAOS],
        ids=["heartbeat-monitor", "oracle-chaos"],
    )
    def test_golden_scenario_effects_are_covered(self, static_index, config):
        recorder = _traced_run(config)
        assert recorder.dispatches, "scenario produced no bus dispatches"
        assert recorder.reads or recorder.writes, "no handler effects observed"
        violations = compare_observed_to_static(recorder, static_index)
        assert violations == [], "\n".join(violations)


class _Counter:
    """Toy handler-owning service for recorder unit tests."""

    def __init__(self):
        self.seen = 0
        self.other = None

    def handle_node_down(self, event):
        before = self.seen  # read
        self.seen = before + 1  # write

    def touch_outside_dispatch(self):
        return self.seen


class TestRecorderMechanics:
    def _bus_with_counter(self):
        bus = EventBus()
        counter = _Counter()
        # A toy subscriber: deliberately not a registered Service.
        bus.subscribe(  # simlint: ignore[C002]
            NodeDown, counter.handle_node_down, Phase.ACCOUNTING
        )
        return bus, counter

    def test_records_reads_and_writes_during_dispatch(self):
        bus, _counter = self._bus_with_counter()
        with EffectRecorder().install(bus) as recorder:
            bus.publish(NodeDown(time=0.0, node_id=1))
        key = ("_Counter", "handle_node_down")
        assert "seen" in recorder.reads[key]
        assert "seen" in recorder.writes[key]
        assert recorder.dispatches == [("NodeDown", "ACCOUNTING", "handle_node_down")]

    def test_accesses_outside_dispatch_are_ignored(self):
        bus, counter = self._bus_with_counter()
        with EffectRecorder().install(bus) as recorder:
            counter.touch_outside_dispatch()
        assert recorder.reads == {} and recorder.writes == {}

    def test_uninstall_restores_class_and_bus(self):
        bus, counter = self._bus_with_counter()
        recorder = EffectRecorder()
        recorder.install(bus)
        recorder.uninstall()
        bus.publish(NodeDown(time=0.0, node_id=1))
        assert counter.seen == 1  # handler still runs, untraced
        assert recorder.dispatches == []
        assert type(counter).__getattribute__ is object.__getattribute__

    def test_double_install_is_rejected(self):
        bus, _counter = self._bus_with_counter()
        recorder = EffectRecorder()
        recorder.install(bus)
        try:
            with pytest.raises(RuntimeError):
                recorder.install(bus)
        finally:
            recorder.uninstall()
