"""Tests for the bus-event trace recorder and its JSONL export."""

import json

from repro.simulator.events import EventBus, NodeDown, NodeUp, Phase, ReplicaAdded
from repro.simulator.trace import TraceRecorder


def _bus_with_recorder():
    bus = EventBus()
    recorder = TraceRecorder(bus)
    return bus, recorder


class TestCapture:
    def test_records_in_publish_order(self):
        bus, recorder = _bus_with_recorder()
        bus.publish(NodeDown(time=1.0, node_id="n1"))
        bus.publish(NodeUp(time=2.0, node_id="n1"))
        assert len(recorder) == 2
        first, second = list(recorder)
        assert (first.seq, first.type, first.key, first.time) == (0, "NodeDown", "n1", 1.0)
        assert (second.seq, second.type, second.key, second.time) == (1, "NodeUp", "n1", 2.0)

    def test_record_carries_payload_and_phases(self):
        bus, recorder = _bus_with_recorder()
        bus.subscribe(NodeDown, lambda e: None, Phase.STORAGE)
        bus.subscribe(NodeDown, lambda e: None, Phase.SCHEDULING)
        bus.publish(NodeDown(time=3.0, node_id="n9"))
        (record,) = recorder.records
        assert record.phases == ("STORAGE", "SCHEDULING")
        assert record.payload == {"time": 3.0, "node_id": "n9"}

    def test_count_by_type_and_events_of(self):
        bus, recorder = _bus_with_recorder()
        bus.publish(NodeDown(time=0.0, node_id="a"))
        bus.publish(NodeDown(time=1.0, node_id="b"))
        bus.publish(ReplicaAdded(time=2.0, block_id="blk", node_id="a"))
        assert recorder.count_by_type() == {"NodeDown": 2, "ReplicaAdded": 1}
        assert [r.key for r in recorder.events_of(NodeDown)] == ["a", "b"]
        assert recorder.events_of(NodeUp) == []

    def test_stop_halts_capture_start_resumes(self):
        bus, recorder = _bus_with_recorder()
        bus.publish(NodeDown(time=0.0, node_id="a"))
        recorder.stop()
        bus.publish(NodeDown(time=1.0, node_id="b"))
        assert len(recorder) == 1  # b missed while stopped
        recorder.start()
        bus.publish(NodeDown(time=2.0, node_id="c"))
        assert [r.key for r in recorder] == ["a", "c"]

    def test_describe(self):
        # The recorder's state: one record held, still recording.
        bus, recorder = _bus_with_recorder()
        bus.publish(NodeDown(time=0.0, node_id="a"))
        assert len(recorder) == 1
        assert recorder._recording is True


class TestExport:
    def test_jsonl_round_trips(self, tmp_path):
        bus, recorder = _bus_with_recorder()
        bus.subscribe(NodeDown, lambda e: None, Phase.NETWORK)
        bus.publish(NodeDown(time=1.5, node_id="n1"))
        bus.publish(ReplicaAdded(time=2.5, block_id="blk-3", node_id="n2"))
        path = tmp_path / "trace.jsonl"
        assert recorder.export_jsonl(str(path)) == 2
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first == {
            "seq": 0,
            "time": 1.5,
            "type": "NodeDown",
            "key": "n1",
            "phases": ["NETWORK"],
            "payload": {"time": 1.5, "node_id": "n1"},
        }
        second = json.loads(lines[1])
        assert second["type"] == "ReplicaAdded"
        assert second["payload"]["block_id"] == "blk-3"

    def test_empty_export(self, tmp_path):
        _bus, recorder = _bus_with_recorder()
        path = tmp_path / "empty.jsonl"
        assert recorder.export_jsonl(str(path)) == 0
        assert path.read_text() == ""
