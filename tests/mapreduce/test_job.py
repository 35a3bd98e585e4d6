"""Tests for job/task/attempt state machines."""

import pytest

from repro.hdfs.blocks import DfsFile
from repro.mapreduce.job import AttemptState, JobConf, MapJob, TaskState


def make_job(num_blocks=4, gamma=10.0, **conf_kwargs):
    f = DfsFile.build("in", num_blocks, 1024, 1)
    return MapJob.uniform(JobConf(**conf_kwargs), f, gamma)


class TestJobConf:
    def test_defaults(self):
        conf = JobConf()
        assert conf.name == "job"
        assert conf.scheduler == "locality"


class TestMapJob:
    def test_one_task_per_block(self):
        job = make_job(7)
        assert job.num_tasks == 7
        ids = {t.task_id for t in job.tasks}
        assert len(ids) == 7

    def test_base_work(self):
        job = make_job(5, gamma=12.0)
        assert job.total_base_work == pytest.approx(60.0)

    def test_gamma_count_mismatch(self):
        f = DfsFile.build("in", 3, 1024, 1)
        with pytest.raises(ValueError, match="one gamma per block"):
            MapJob(JobConf(), f, [1.0, 2.0])

    def test_makespan_requires_completion(self):
        job = make_job()
        with pytest.raises(ValueError):
            _ = job.makespan
        job.submitted_at = 0.0
        job.finished_at = 55.0
        assert job.makespan == 55.0

    def test_completion_tracking(self):
        job = make_job(2)
        assert not job.is_complete
        for task in job.tasks:
            task.state = TaskState.COMPLETED
        assert job.is_complete
        assert job.completed_count == 2

    def test_task_lookup(self):
        job = make_job(2)
        t = job.tasks[0]
        assert job.task(t.task_id) is t


class TestAttemptLifecycle:
    def test_new_attempt_is_live(self):
        job = make_job(1)
        task = job.tasks[0]
        attempt = task.new_attempt("n0", local=True, speculative=False, now=0.0)
        assert attempt.is_live
        assert task.live == (attempt,)

    def test_retire_removes_from_live(self):
        job = make_job(1)
        task = job.tasks[0]
        attempt = task.new_attempt("n0", local=True, speculative=False, now=0.0)
        attempt.retire(AttemptState.FAILED, now=5.0)
        assert not attempt.is_live
        assert not task.live
        assert attempt.finished_at == 5.0

    def test_retiring_one_of_two_keeps_the_other(self):
        task = make_job(1).tasks[0]
        first = task.new_attempt("n0", local=True, speculative=False, now=0.0)
        second = task.new_attempt("n1", local=True, speculative=True, now=1.0)
        second.retire(AttemptState.KILLED, now=2.0)
        assert task.live == (first,)
        second.retire(AttemptState.KILLED, now=3.0)  # already out: live set unchanged
        assert task.live == (first,)

    def test_retire_to_live_state_rejected(self):
        job = make_job(1)
        task = job.tasks[0]
        attempt = task.new_attempt("n0", local=True, speculative=False, now=0.0)
        with pytest.raises(ValueError):
            attempt.retire(AttemptState.RUNNING, now=1.0)

    def test_speculative_count(self):
        job = make_job(1)
        task = job.tasks[0]
        task.new_attempt("n0", local=True, speculative=False, now=0.0)
        spec = task.new_attempt("n1", local=False, speculative=True, now=1.0, source_node="n0")
        assert task.speculative_count() == 1
        spec.retire(AttemptState.KILLED, now=2.0)
        assert task.speculative_count() == 0

    def test_attempt_ids_unique(self):
        job = make_job(1)
        task = job.tasks[0]
        a1 = task.new_attempt("n0", local=True, speculative=False, now=0.0)
        a2 = task.new_attempt("n1", local=True, speculative=False, now=0.0)
        assert a1.attempt_id != a2.attempt_id
        # Derived from the task id and the attempt's ordinal, on read.
        assert (a1.attempt_id, a2.attempt_id) == (f"{task.task_id}_a1", f"{task.task_id}_a2")
        assert task.attempt_count == 2

    def test_elapsed(self):
        job = make_job(1)
        attempt = job.tasks[0].new_attempt("n0", local=True, speculative=False, now=3.0)
        assert attempt.elapsed(10.0) == 7.0
