"""Tests for the typed, phase-ordered event bus."""

import pytest

from repro.simulator.events import (
    BlockLost,
    Event,
    EventBus,
    NodeDown,
    NodeEvent,
    NodeUp,
    Phase,
    ReplicaAdded,
    TaskStateChange,
)


class TestPhaseOrdering:
    def test_phases_run_in_declared_order_not_subscription_order(self):
        bus = EventBus()
        order = []
        # Subscribe in deliberately scrambled phase order.
        bus.subscribe(NodeDown, lambda e: order.append("sched"), Phase.SCHEDULING)
        bus.subscribe(NodeDown, lambda e: order.append("acct"), Phase.ACCOUNTING)
        bus.subscribe(NodeDown, lambda e: order.append("net"), Phase.NETWORK)
        bus.subscribe(NodeDown, lambda e: order.append("storage"), Phase.STORAGE)
        bus.subscribe(NodeDown, lambda e: order.append("detect"), Phase.DETECTION)
        bus.subscribe(NodeDown, lambda e: order.append("compute"), Phase.COMPUTE)
        bus.publish(NodeDown(time=1.0, node_id="n1"))
        assert order == ["acct", "storage", "compute", "net", "detect", "sched"]

    def test_within_phase_subscription_order_preserved(self):
        bus = EventBus()
        order = []
        for tag in "abcd":
            bus.subscribe(NodeUp, lambda e, t=tag: order.append(t), Phase.STORAGE)
        bus.publish(NodeUp(time=0.0, node_id="n1"))
        assert order == list("abcd")

    def test_phase_enum_covers_expected_sequence(self):
        assert [p.name for p in sorted(Phase)] == [
            "ACCOUNTING",
            "STORAGE",
            "COMPUTE",
            "NETWORK",
            "DETECTION",
            "SCHEDULING",
        ]


class TestTypeMatching:
    def test_exact_type_only_no_subclass_dispatch(self):
        bus = EventBus()
        hits = []
        bus.subscribe(NodeEvent, lambda e: hits.append("base"), Phase.STORAGE)
        bus.subscribe(NodeDown, lambda e: hits.append("down"), Phase.STORAGE)
        bus.publish(NodeDown(time=0.0, node_id="n1"))
        assert hits == ["down"]

    def test_unrelated_types_not_delivered(self):
        bus = EventBus()
        hits = []
        bus.subscribe(NodeDown, hits.append, Phase.STORAGE)
        bus.publish(NodeUp(time=0.0, node_id="n1"))
        assert hits == []

    def test_subscribe_rejects_non_event_type(self):
        bus = EventBus()
        with pytest.raises(TypeError):
            bus.subscribe(str, lambda e: None, Phase.STORAGE)
        with pytest.raises(TypeError):
            bus.subscribe(NodeDown(time=0.0, node_id="x"), lambda e: None, Phase.STORAGE)


class TestKeyedRouting:
    def test_keyed_handler_only_sees_its_key(self):
        bus = EventBus()
        hits = []
        bus.subscribe(NodeDown, lambda e: hits.append(e.node_id), Phase.STORAGE, key="n1")
        bus.publish(NodeDown(time=0.0, node_id="n2"))
        assert hits == []
        bus.publish(NodeDown(time=1.0, node_id="n1"))
        assert hits == ["n1"]

    def test_keyed_and_unkeyed_merge_in_phase_order(self):
        bus = EventBus()
        order = []
        bus.subscribe(NodeDown, lambda e: order.append("keyed-sched"), Phase.SCHEDULING, key="n1")
        bus.subscribe(NodeDown, lambda e: order.append("global-acct"), Phase.ACCOUNTING)
        bus.subscribe(NodeDown, lambda e: order.append("keyed-storage"), Phase.STORAGE, key="n1")
        bus.subscribe(NodeDown, lambda e: order.append("global-net"), Phase.NETWORK)
        bus.publish(NodeDown(time=0.0, node_id="n1"))
        assert order == ["global-acct", "keyed-storage", "global-net", "keyed-sched"]

    def test_same_phase_keyed_vs_unkeyed_breaks_by_subscription_seq(self):
        bus = EventBus()
        order = []
        bus.subscribe(NodeDown, lambda e: order.append("first"), Phase.STORAGE, key="n1")
        bus.subscribe(NodeDown, lambda e: order.append("second"), Phase.STORAGE)
        bus.publish(NodeDown(time=0.0, node_id="n1"))
        assert order == ["first", "second"]

    def test_block_events_route_by_block_id(self):
        bus = EventBus()
        hits = []
        bus.subscribe(BlockLost, lambda e: hits.append(e.block_id), Phase.SCHEDULING, key="b7")
        bus.publish(BlockLost(time=0.0, block_id="b3"))
        bus.publish(BlockLost(time=0.0, block_id="b7"))
        assert hits == ["b7"]
        assert ReplicaAdded(time=0.0, block_id="b7", node_id="n1").routing_key == "b7"
        assert TaskStateChange(time=0.0, task_id="t1", state="RUNNING").routing_key == "t1"


class TestNestedPublish:
    def test_nested_dispatch_completes_before_outer_resumes(self):
        bus = EventBus()
        order = []

        def storage_handler(event):
            order.append("outer-storage")
            bus.publish(BlockLost(time=event.time, block_id="b1"))

        bus.subscribe(NodeDown, storage_handler, Phase.STORAGE)
        bus.subscribe(NodeDown, lambda e: order.append("outer-sched"), Phase.SCHEDULING)
        bus.subscribe(BlockLost, lambda e: order.append("nested"), Phase.SCHEDULING)
        bus.publish(NodeDown(time=0.0, node_id="n1"))
        # The nested BlockLost dispatch runs depth-first: its SCHEDULING
        # handler fires before the outer event reaches its own SCHEDULING.
        assert order == ["outer-storage", "nested", "outer-sched"]


class TestTaps:
    def test_tap_sees_every_event_before_handlers(self):
        bus = EventBus()
        order = []
        bus.add_tap(lambda e, phases: order.append(("tap", type(e).__name__, phases)))
        bus.subscribe(NodeDown, lambda e: order.append(("handler",)), Phase.NETWORK)
        bus.publish(NodeDown(time=0.0, node_id="n1"))
        bus.publish(NodeUp(time=1.0, node_id="n1"))  # nobody subscribed
        assert order == [
            ("tap", "NodeDown", (Phase.NETWORK,)),
            ("handler",),
            ("tap", "NodeUp", ()),
        ]

    def test_tap_phase_tuple_lists_phases_with_handlers(self):
        bus = EventBus()
        seen = []
        bus.subscribe(NodeDown, lambda e: None, Phase.SCHEDULING)
        bus.subscribe(NodeDown, lambda e: None, Phase.ACCOUNTING)
        bus.subscribe(NodeDown, lambda e: None, Phase.ACCOUNTING)
        bus.add_tap(lambda e, phases: seen.append(phases))
        bus.publish(NodeDown(time=0.0, node_id="n1"))
        assert seen == [(Phase.ACCOUNTING, Phase.SCHEDULING)]


class TestDispatchOrderCache:
    """Each key's merged dispatch order is cached from its first publish,
    and every subscription to the type drops the cache."""

    def test_keyed_subscription_between_publishes_runs_from_the_next(self):
        bus = EventBus()
        hits = []
        bus.subscribe(NodeDown, lambda e: hits.append(("compute", e.time)), Phase.COMPUTE, key="n1")
        bus.publish(NodeDown(time=0.0, node_id="n1"))  # caches n1's order
        bus.subscribe(NodeDown, lambda e: hits.append(("storage", e.time)), Phase.STORAGE, key="n1")
        bus.publish(NodeDown(time=1.0, node_id="n1"))
        assert hits == [("compute", 0.0), ("storage", 1.0), ("compute", 1.0)]
        assert bus.dispatched_count == 3

    def test_unkeyed_subscription_reaches_cached_keys(self):
        bus = EventBus()
        hits = []
        bus.subscribe(NodeDown, lambda e: hits.append("keyed"), Phase.STORAGE, key="n1")
        bus.publish(NodeDown(time=0.0, node_id="n1"))
        bus.subscribe(NodeDown, lambda e: hits.append("unkeyed"), Phase.ACCOUNTING)
        bus.publish(NodeDown(time=1.0, node_id="n1"))
        assert hits == ["keyed", "unkeyed", "keyed"]


class TestClear:
    def test_clear_drops_the_wiring_and_keeps_the_counters(self):
        bus = EventBus()
        hits = []
        bus.subscribe(NodeDown, hits.append, Phase.STORAGE, key="n1")
        bus.subscribe(NodeDown, hits.append, Phase.SCHEDULING)
        bus.add_tap(lambda e, phases: hits.append("tap"))
        bus.publish(NodeDown(time=0.0, node_id="n1"))
        assert len(hits) == 3
        bus.clear()
        assert not bus.wants(NodeDown)
        assert bus.handler_count(NodeDown) == 0
        bus.publish(NodeDown(time=1.0, node_id="n1"))
        assert len(hits) == 3
        assert (bus.published_count, bus.dispatched_count) == (2, 2)


class TestMidDispatchSubscription:
    """A handler that subscribes during dispatch changes only the next
    publish: unkeyed dispatch runs over the type's frozen snapshot, keyed
    dispatch over the copy its merge takes."""

    @pytest.mark.parametrize("key", [None, "n1"])
    def test_new_handler_runs_from_the_next_publish(self, key):
        bus = EventBus()
        hits = []

        def recruiter(event):
            hits.append(("recruiter", event.time))
            if event.time == 0.0:
                # A later phase: were it dispatched now, it would run now.
                bus.subscribe(
                    NodeDown, lambda e: hits.append(("recruit", e.time)), Phase.SCHEDULING, key=key
                )

        bus.subscribe(NodeDown, recruiter, Phase.STORAGE, key=key)
        bus.publish(NodeDown(time=0.0, node_id="n1"))
        assert hits == [("recruiter", 0.0)]
        bus.publish(NodeDown(time=1.0, node_id="n1"))
        assert hits == [("recruiter", 0.0), ("recruiter", 1.0), ("recruit", 1.0)]


class TestIntrospection:
    def test_wants_reflects_subscriptions(self):
        bus = EventBus()
        assert not bus.wants(TaskStateChange)
        bus.subscribe(TaskStateChange, lambda e: None, Phase.SCHEDULING)
        assert bus.wants(TaskStateChange)
        assert not bus.wants(NodeDown)

    def test_taps_make_everything_wanted(self):
        bus = EventBus()
        bus.add_tap(lambda e, phases: None)
        assert bus.wants(TaskStateChange)
        assert bus.wants(NodeDown)

    def test_counts(self):
        bus = EventBus()
        bus.subscribe(NodeDown, lambda e: None, Phase.STORAGE)
        bus.subscribe(NodeDown, lambda e: None, Phase.COMPUTE, key="n1")
        assert bus.handler_count(NodeDown) == 2
        assert bus.handler_count(NodeUp) == 0
        bus.publish(NodeDown(time=0.0, node_id="n1"))
        bus.publish(NodeDown(time=1.0, node_id="n2"))
        bus.publish(NodeUp(time=2.0, node_id="n1"))
        assert bus.published_count == 3
        # n1's down hits both handlers, n2's only the unkeyed one.
        assert bus.dispatched_count == 3

    def test_payload_flattens_all_fields(self):
        event = TaskStateChange(time=2.5, task_id="t1", state="RUNNING", node_id="n1")
        assert event.payload() == {
            "time": 2.5,
            "task_id": "t1",
            "state": "RUNNING",
            "node_id": "n1",
        }
        assert isinstance(event, Event)


class TestWantsCache:
    """``wants`` answers from a per-type cache; every wiring change must
    flip it at once, including a type it already answered."""

    @pytest.mark.parametrize("key", [None, "n1"])
    def test_subscribe_flips_it(self, key):
        bus = EventBus()
        assert not bus.wants(NodeDown)
        bus.subscribe(NodeDown, lambda e: None, Phase.COMPUTE, key=key)
        assert bus.wants(NodeDown)
        assert not bus.wants(NodeUp)

    def test_subscribe_many_flips_it(self):
        bus = EventBus()
        assert not bus.wants(NodeDown)
        bus.subscribe_many(NodeDown, Phase.COMPUTE, [("n1", lambda e: None)])
        assert bus.wants(NodeDown)

    def test_add_tap_flips_every_type(self):
        bus = EventBus()
        assert not bus.wants(TaskStateChange)
        assert not bus.wants(NodeDown)
        bus.add_tap(lambda e, phases: None)
        assert bus.wants(TaskStateChange)
        assert bus.wants(NodeDown)


class TestSubscribeMany:
    def test_dispatch_identical_to_loop_of_subscribe(self):
        keys = [f"n{i}" for i in range(6)]

        def wire_loop(bus, order):
            for key in keys:
                bus.subscribe(
                    NodeDown, lambda e, k=key: order.append(("d", k)), Phase.STORAGE, key=key
                )
                bus.subscribe(
                    NodeDown, lambda e, k=key: order.append(("c", k)), Phase.COMPUTE, key=key
                )

        def wire_bulk(bus, order):
            bus.subscribe_many(
                NodeDown,
                Phase.STORAGE,
                ((k, (lambda e, k=k: order.append(("d", k)))) for k in keys),
            )
            bus.subscribe_many(
                NodeDown,
                Phase.COMPUTE,
                ((k, (lambda e, k=k: order.append(("c", k)))) for k in keys),
            )

        results = []
        for wire in (wire_loop, wire_bulk):
            bus = EventBus()
            order = []
            bus.subscribe(NodeDown, lambda e: order.append(("acct", None)), Phase.ACCOUNTING)
            wire(bus, order)
            bus.subscribe(NodeDown, lambda e: order.append(("sched", None)), Phase.SCHEDULING)
            for key in keys:
                bus.publish(NodeDown(time=1.0, node_id=key))
            results.append(order)
        assert results[0] == results[1]

    def test_mixed_keyed_and_unkeyed(self):
        bus = EventBus()
        hits = []
        added = bus.subscribe_many(
            NodeUp,
            Phase.STORAGE,
            [
                (None, lambda e: hits.append("unkeyed")),
                ("n1", lambda e: hits.append("n1")),
            ],
        )
        assert added == 2
        bus.publish(NodeUp(time=0.0, node_id="n1"))
        bus.publish(NodeUp(time=1.0, node_id="n2"))
        assert hits == ["unkeyed", "n1", "unkeyed"]

    def test_unkeyed_cache_invalidated(self):
        bus = EventBus()
        hits = []
        bus.subscribe(NodeUp, lambda e: hits.append("first"), Phase.STORAGE)
        bus.publish(NodeUp(time=0.0, node_id="n1"))  # warms the cache
        bus.subscribe_many(
            NodeUp, Phase.STORAGE, [(None, lambda e: hits.append("second"))]
        )
        bus.publish(NodeUp(time=1.0, node_id="n1"))
        assert hits == ["first", "first", "second"]

    def test_type_validated_once(self):
        bus = EventBus()
        with pytest.raises(TypeError):
            bus.subscribe_many(int, Phase.STORAGE, [(None, lambda e: None)])

    def test_counts_and_wants(self):
        bus = EventBus()
        bus.subscribe_many(
            NodeDown,
            Phase.COMPUTE,
            ((f"n{i}", (lambda e: None)) for i in range(5)),
        )
        assert bus.wants(NodeDown)
        assert bus.handler_count(NodeDown) == 5

    def test_empty_iterable_is_noop(self):
        bus = EventBus()
        assert bus.subscribe_many(NodeDown, Phase.COMPUTE, []) == 0
        assert not bus.wants(NodeDown)
