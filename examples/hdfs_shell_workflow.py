#!/usr/bin/env python3
"""The ADAPT shell workflow: copyFromLocal -> job -> adapt -> job again.

Section IV.A adds three interfaces to the HDFS shell: ``copyFromLocal`` and
``cp`` gain an ADAPT flag, and a new ``adapt <file>`` command redistributes
an existing file's blocks to become availability-aware. This example drives
exactly that workflow against a simulated non-dedicated cluster and shows
the before/after block distribution, storage skew, and map-phase time.

Run: ``python examples/hdfs_shell_workflow.py``
"""

from repro.availability.generator import build_group_hosts
from repro.core.placement import RandomPlacement
from repro.mapreduce.job import JobConf, MapJob
from repro.runtime.cluster import ClusterConfig, build_cluster
from repro.util.tables import format_table
from repro.workloads import TerasortWorkload

NODES = 24
BLOCKS = 240


def group_distribution(cluster, name, hosts):
    """Blocks per availability group for a file (the distribution is keyed by node id)."""
    dist = cluster.client.block_distribution(name)
    per_group = {}
    for host in hosts:
        per_group.setdefault(host.group, []).append(dist[cluster.ids.id_of(host.host_id)])
    return {g: sum(v) for g, v in sorted(per_group.items())}


def run_job(cluster, file_name, gamma):
    dfs_file = cluster.namenode.file(file_name)
    job = MapJob.uniform(JobConf(name=f"job-{file_name}"), dfs_file, gamma)
    cluster.jobtracker.submit(job)
    cluster.run_until_job_done()
    return job.makespan


def main() -> None:
    hosts = build_group_hosts(NODES, interrupted_ratio=0.5)
    workload = TerasortWorkload()
    config = ClusterConfig(seed=11)
    gamma = workload.gamma_seconds(config.block_size_bytes)

    # Two identical clusters so each job starts from a clean failure stream.
    plain = build_cluster(hosts, config, default_gamma=gamma)
    tuned = build_cluster(hosts, config, default_gamma=gamma)
    for cluster in (plain, tuned):
        cluster.sim.run(until=0.0)
        # $ hdfs copyFromLocal ./input input   (stock random placement)
        cluster.client.copy_from_local("input", num_blocks=BLOCKS, policy=RandomPlacement(), gamma=gamma)

    # $ hdfs adapt input    (redistribute in place on the tuned cluster)
    report = tuned.client.adapt("input")

    rows = []
    before = group_distribution(plain, "input", hosts)
    after = group_distribution(tuned, "input", hosts)
    for group in before:
        rows.append([group, before[group], after[group]])
    print(format_table(["availability group", "blocks before", "blocks after"],
                       rows, title=f"`adapt input` moved {report.move_count} blocks "
                                   f"({report.bytes_moved // (1024*1024)} MB)"))
    print(f"\nstorage skew (max/mean): before={plain.client.storage_skew('input'):.2f} "
          f"after={tuned.client.storage_skew('input'):.2f} "
          f"(the m(k+1)/n threshold bounds the skew)")

    plain_time = run_job(plain, "input", gamma)
    tuned_time = run_job(tuned, "input", gamma)
    print(f"\nmap phase on the original layout:   {plain_time:7.1f} s")
    print(f"map phase after `adapt input`:      {tuned_time:7.1f} s "
          f"({(tuned_time / plain_time - 1) * 100:+.0f}%)")


if __name__ == "__main__":
    main()
