#!/usr/bin/env python3
"""Maintenance traffic: decommissioning a node of a live cluster.

Production captures contain traffic no job generates: decommission
drains copying a retiring node's blocks away.  This script retires a
node *during* a job to show the two traffic classes interleaving.

Run:  python examples/cluster_maintenance.py
"""

from repro.cluster.config import ClusterSpec, HadoopConfig
from repro.cluster.units import MB, fmt_bytes
from repro.faults import DECOMMISSION, FaultEvent, FaultInjector
from repro.jobs import make_job
from repro.mapreduce.cluster import HadoopCluster


def main() -> None:
    cluster = HadoopCluster(ClusterSpec(num_nodes=8, hosts_per_rack=4),
                            HadoopConfig(block_size=32 * MB, num_reducers=2),
                            seed=77)

    # Retire a node gracefully while a job runs.  Fault times are
    # absolute simulation times.
    victim = cluster.workers[3]
    injector = FaultInjector(
        cluster, [FaultEvent(cluster.sim.now + 2.0, DECOMMISSION, victim.name)])
    results, _ = cluster.run([make_job("wordcount", input_gb=0.5)])
    drain = sum(r.size for r in cluster.collector.records
                if r.service == "re-replication")
    print(f"decommissioned {victim.name} during a wordcount run:")
    print(f"  drained {injector.report.blocks_rereplicated} blocks "
          f"({fmt_bytes(drain)}), job finished in "
          f"{results[0].completion_time:.1f}s (failed: {results[0].failed})")
    print(f"  node retired: {cluster.namenode.is_dead(victim)}")


if __name__ == "__main__":
    main()
