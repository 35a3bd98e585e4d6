"""Memory guard: one compact record per block, task and attempt.

A Figure 5 cell holds every block, task and attempt of its job until the
map phase ends (Table 4's default is 8,196 hosts with 100 tasks each), so
the bytes each task keeps alive set the memory a paper-scale cell needs
(DESIGN.md §10, "Tasks, attempts and blocks: one compact record each").
"""

import gc
import tracemalloc

from repro.experiments.config import SimulationConfig, Strategy
from repro.experiments.largescale import run_simulation_point
from repro.hdfs.blocks import DfsFile
from repro.mapreduce.job import JobConf, MapJob
from repro.runtime.cluster import Cluster

#: Traced bytes per task still held when the map phase ends. Measured
#: on Python 3.11: 893 B now that the attempt history lives on the job
#: (940 B when each task held its attempts and its winner), 1,429 B with
#: one ``__dict__`` per record. The bound sits between the slotted and
#: the ``__dict__`` records, with room for interpreters whose objects are
#: larger than 3.11's.
MAX_HELD_BYTES_PER_TASK = 1250


def test_records_have_no_instance_dict():
    dfs_file = DfsFile.build("input", 2, 1024, 1)
    task = MapJob.uniform(JobConf(), dfs_file, 10.0).tasks[0]
    attempt = task.new_attempt("n0", local=True, speculative=False, now=0.0)
    for record in (task.block, task, attempt):
        assert not hasattr(record, "__dict__"), type(record).__name__


def test_held_bytes_per_task_after_the_map_phase(monkeypatch):
    held = {}
    run_until_job_done = Cluster.run_until_job_done

    def measured(cluster, *args, **kwargs):
        run_until_job_done(cluster, *args, **kwargs)
        gc.collect()
        held["bytes"] = tracemalloc.get_traced_memory()[0]

    monkeypatch.setattr(Cluster, "run_until_job_done", measured)
    started = not tracemalloc.is_tracing()
    gc.collect()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = run_simulation_point(
            SimulationConfig(node_count=64), Strategy("existing", 1), seed=1
        )
    finally:
        if started:
            tracemalloc.stop()
    assert result.num_tasks == 6400
    per_task = (held["bytes"] - before) / result.num_tasks
    assert per_task < MAX_HELD_BYTES_PER_TASK, f"{per_task:.0f} B held per task"
