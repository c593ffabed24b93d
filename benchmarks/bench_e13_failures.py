"""E13 — node-failure recovery traffic.

Shape claims: a DataNode crash triggers block-sized re-replication
flows restoring the replication factor; a whole-node crash additionally
loses containers; the job survives both with a completion-time penalty
but no failure.
"""

from benchmarks.conftest import run_experiment
from repro.experiments import figures


def test_e13_failures(benchmark):
    (table,) = run_experiment(benchmark, figures.e13_failures)
    rows = {row[0]: row for row in table.rows}

    healthy = rows["healthy"]
    dn_crash = rows["datanode crash"]
    node_crash = rows["whole node crash"]

    # No recovery traffic without a fault.
    assert healthy[3] == 0 and healthy[4] == 0 and healthy[5] == 0
    # The DN crash re-replicates every lost block (32 MiB each here).
    assert dn_crash[4] > 0
    assert dn_crash[3] == dn_crash[4] * 32
    # A machine crash also expires containers (the victim is the
    # busiest non-AM worker at the fault), and costs more time.
    assert node_crash[5] > 0
    assert node_crash[5] >= dn_crash[5]
    assert node_crash[1:] != dn_crash[1:]
    assert node_crash[1] >= healthy[1]
    # Every scenario completes.
    assert not any(row[6] for row in table.rows)
