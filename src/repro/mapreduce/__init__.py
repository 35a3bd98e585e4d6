"""MapReduce runtime substrate (Hadoop-analogous, event-driven).

Models the Hadoop runtime pieces the paper's evaluation depends on
(Section II.B): a JobTracker scheduling map tasks onto TaskTrackers with
locality-first assignment, data migration for remote tasks, task
re-execution after interruptions, and speculative execution of stragglers.
The reduce phase is out of the paper's scope ("we target at improving the
map phase cost"), and no reduce phase is modelled.
"""

from repro.mapreduce.job import (
    AttemptState,
    JobConf,
    MapJob,
    MapTask,
    TaskAttempt,
    TaskState,
)
from repro.mapreduce.jobtracker import JobTracker
from repro.mapreduce.scheduler import (
    AvailabilityAwareScheduler,
    LocalityFirstScheduler,
    TaskScheduler,
    make_scheduler,
)
from repro.mapreduce.speculation import SpeculationPolicy
from repro.mapreduce.tasktracker import TaskTracker

__all__ = [
    "JobConf",
    "MapJob",
    "MapTask",
    "TaskAttempt",
    "TaskState",
    "AttemptState",
    "JobTracker",
    "TaskTracker",
    "TaskScheduler",
    "LocalityFirstScheduler",
    "AvailabilityAwareScheduler",
    "make_scheduler",
    "SpeculationPolicy",
]
