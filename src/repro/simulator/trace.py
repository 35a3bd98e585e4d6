"""Structured event tracing: every bus dispatch as an exportable record.

The event bus doubles as the cluster's observability layer: a
:class:`TraceRecorder` taps the bus and captures one structured record per
published event — sequence, simulation time, event type, routing key
(node or block), the dispatch phases that had handlers, and the full event
payload. Records accumulate in memory in causal (publish) order and export
as JSON Lines, one object per line, so any future scenario gets tracing
for free by passing ``--trace-out`` (or setting
``ClusterConfig.trace_events``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Tuple, Type

from repro.core.ids import NodeIds
from repro.simulator.events import Event, EventBus, Phase

#: Payload fields that carry dense node ids; exported records translate
#: them back to host names (ids are an in-memory representation, names
#: are the reporting vocabulary).
_NODE_FIELDS = ("node_id",)
_NODE_TUPLE_FIELDS = ("members",)


@dataclass(frozen=True)
class TraceRecord:
    """One captured bus event."""

    #: Publish order (0-based) — total order over the whole run.
    seq: int
    #: Simulation time the event carries.
    time: float
    #: Event class name (``NodeDown``, ``BlockLost``, ...).
    type: str
    #: Routing key: the node or block the event is about (None = global).
    key: Optional[str]
    #: Names of the dispatch phases that had at least one handler.
    phases: Tuple[str, ...]
    #: Every field of the event, JSON-ready.
    payload: Mapping[str, object]

    def to_json(self) -> str:
        return json.dumps(
            {
                "seq": self.seq,
                "time": self.time,
                "type": self.type,
                "key": self.key,
                "phases": list(self.phases),
                "payload": dict(self.payload),
            },
            sort_keys=True,
        )


class TraceRecorder:
    """Bus tap that materialises the event stream (a lifecycle service)."""

    def __init__(self, bus: EventBus, ids: Optional[NodeIds] = None) -> None:
        self._records: List[TraceRecord] = []
        self._recording = True
        self._ids = ids
        bus.add_tap(self._on_event)

    # -- service lifecycle -------------------------------------------------------

    def start(self) -> None:
        self._recording = True

    def stop(self) -> None:
        """Stop capturing; already-captured records stay readable."""
        self._recording = False

    # -- capture ------------------------------------------------------------------

    def _on_event(self, event: Event, phases: Tuple[Phase, ...]) -> None:
        if not self._recording:
            return
        self._records.append(
            TraceRecord(
                seq=len(self._records),
                time=event.time,
                type=type(event).__name__,
                key=self._display(event.routing_key),
                phases=tuple(phase.name for phase in phases),
                payload=self._display_payload(event.payload()),
            )
        )

    def _display(self, key: object) -> Optional[str]:
        """Render a routing key for export (int node id -> host name)."""
        if key is None:
            return None
        if self._ids is not None and isinstance(key, int):
            return self._ids.name_of(key)
        return str(key)

    def _display_payload(self, payload: Dict[str, object]) -> Dict[str, object]:
        """Translate node-id fields back to host names for export."""
        if self._ids is None:
            return payload
        name_of = self._ids.name_of
        for field in _NODE_FIELDS:
            value = payload.get(field)
            if isinstance(value, int):
                payload[field] = name_of(value)
        for field in _NODE_TUPLE_FIELDS:
            value = payload.get(field)
            if isinstance(value, tuple):
                payload[field] = tuple(
                    name_of(v) if isinstance(v, int) else v for v in value
                )
        return payload

    # -- access -------------------------------------------------------------------

    @property
    def records(self) -> List[TraceRecord]:
        return list(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    def count_by_type(self) -> Dict[str, int]:
        """Event-type histogram of the captured stream."""
        counts: Dict[str, int] = {}
        for record in self._records:
            counts[record.type] = counts.get(record.type, 0) + 1
        return counts

    def events_of(self, event_type: Type[Event]) -> List[TraceRecord]:
        wanted = event_type.__name__
        return [record for record in self._records if record.type == wanted]

    # -- export -------------------------------------------------------------------

    def export_jsonl(self, path: str) -> int:
        """Write one JSON object per record; returns the record count."""
        with open(path, "w", encoding="utf-8") as handle:
            for record in self._records:
                handle.write(record.to_json())
                handle.write("\n")
        return len(self._records)


__all__ = ["TraceRecord", "TraceRecorder"]
