"""Tests for the task-assignment schedulers."""

from typing import Dict, List, Sequence

import pytest

from repro.hdfs.blocks import Block
from repro.mapreduce.job import MapTask, TaskState
from repro.mapreduce.scheduler import (
    AvailabilityAwareScheduler,
    LocalityFirstScheduler,
    SchedulerContext,
    make_scheduler,
)


class FakeContext(SchedulerContext):
    """Scheduler context backed by plain dicts."""

    def __init__(self, holders: Dict[str, List[str]], unavailability=None):
        self._holders = holders
        self._unavail = unavailability or {}

    def is_assignable(self, task: MapTask) -> bool:
        return task.state is TaskState.PENDING

    def holders(self, task: MapTask) -> Sequence[str]:
        return self._holders[task.task_id]

    def readable_holders(self, task: MapTask) -> Sequence[str]:
        return self._holders[task.task_id]

    def choose_source(self, task: MapTask, sources: Sequence[str]) -> str:
        return sorted(sources)[0]

    def holder_unavailability(self, node_id: str) -> float:
        return self._unavail.get(node_id, 0.0)


def make_task(i, gamma=10.0):
    block = Block(block_id=f"b{i}", file_name="f", index=i, size_bytes=1024)
    return MapTask(task_id=f"t{i}", block=block, gamma=gamma)


class TestLocalityFirst:
    def test_prefers_local(self):
        sched = LocalityFirstScheduler()
        t0, t1 = make_task(0), make_task(1)
        ctx = FakeContext({"t0": ["A"], "t1": ["B"]})
        sched.enqueue(t0, ["A"])
        sched.enqueue(t1, ["B"])
        task, source = sched.pick("A", ctx)
        assert task is t0
        assert source is None

    def test_steals_remote_when_no_local(self):
        sched = LocalityFirstScheduler()
        t0 = make_task(0)
        ctx = FakeContext({"t0": ["B"]})
        sched.enqueue(t0, ["B"])
        task, source = sched.pick("A", ctx)
        assert task is t0
        assert source == "B"

    def test_skips_running_tasks(self):
        sched = LocalityFirstScheduler()
        t0, t1 = make_task(0), make_task(1)
        ctx = FakeContext({"t0": ["A"], "t1": ["A"]})
        sched.enqueue(t0, ["A"])
        sched.enqueue(t1, ["A"])
        t0.state = TaskState.RUNNING  # stale entry
        task, _ = sched.pick("A", ctx)
        assert task is t1

    def test_global_pop_detects_locality(self):
        # A task popped from the global queue that happens to be local to
        # the asking node must be returned as local.
        sched = LocalityFirstScheduler()
        t0 = make_task(0)
        ctx = FakeContext({"t0": ["A", "B"]})
        sched.enqueue(t0, ["B"])  # local queue only knows B
        task, source = sched.pick("A", ctx)
        assert task is t0
        assert source is None

    def test_fifo_order_for_steals(self):
        sched = LocalityFirstScheduler()
        tasks = [make_task(i) for i in range(3)]
        ctx = FakeContext({t.task_id: ["B"] for t in tasks})
        for t in tasks:
            sched.enqueue(t, ["B"])
        picked, _ = sched.pick("A", ctx)
        assert picked is tasks[0]

    def test_empty(self):
        sched = LocalityFirstScheduler()
        ctx = FakeContext({})
        assert sched.pick("A", ctx) is None


class TestAvailabilityAware:
    def test_steals_from_least_available_holder_first(self):
        sched = AvailabilityAwareScheduler(scan_window=8)
        good_task, bad_task = make_task(0), make_task(1)
        ctx = FakeContext(
            {"t0": ["GOOD"], "t1": ["BAD"]},
            unavailability={"GOOD": 0.05, "BAD": 0.9},
        )
        sched.enqueue(good_task, ["GOOD"])
        sched.enqueue(bad_task, ["BAD"])
        task, source = sched.pick("A", ctx)
        assert task is bad_task
        assert source == "BAD"

    def test_unpicked_candidates_stay_pending(self):
        sched = AvailabilityAwareScheduler(scan_window=8)
        t0, t1 = make_task(0), make_task(1)
        ctx = FakeContext(
            {"t0": ["G"], "t1": ["B"]}, unavailability={"G": 0.0, "B": 1.0}
        )
        sched.enqueue(t0, ["G"])
        sched.enqueue(t1, ["B"])
        first, _ = sched.pick("A", ctx)
        assert first is t1
        first.state = TaskState.RUNNING
        second, _ = sched.pick("A", ctx)
        assert second is t0

    def test_local_still_first(self):
        sched = AvailabilityAwareScheduler()
        t0, t1 = make_task(0), make_task(1)
        ctx = FakeContext(
            {"t0": ["A"], "t1": ["B"]}, unavailability={"A": 0.0, "B": 1.0}
        )
        sched.enqueue(t0, ["A"])
        sched.enqueue(t1, ["B"])
        task, source = sched.pick("A", ctx)
        assert task is t0
        assert source is None

    def test_window_validation(self):
        with pytest.raises(ValueError):
            AvailabilityAwareScheduler(scan_window=0)


class TestFactory:
    def test_known(self):
        assert isinstance(make_scheduler("locality"), LocalityFirstScheduler)
        assert isinstance(make_scheduler("availability"), AvailabilityAwareScheduler)

    def test_unknown(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            make_scheduler("zoo")
