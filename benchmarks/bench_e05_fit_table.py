"""E5 — best-fit distribution table per (job, component, metric).

Shape claims: the table covers every job in the mix, KS distances are
reported for every row, and every HDFS-read size row whose population
has no spread (each flow one whole block) reads ``degenerate`` with
KS 0 and the block size as its value, while rows with spread keep a
ranked parametric family.
"""

from benchmarks.conftest import run_experiment
from repro.experiments import figures
from repro.experiments.campaigns import DEFAULT_SEED, capture


def test_e05_fit_table(benchmark):
    (table,) = run_experiment(benchmark, figures.e05_fit_table)

    jobs = {row[0] for row in table.rows}
    assert jobs == {"terasort", "wordcount", "grep", "pagerank", "kmeans"}

    # Every row carries a valid KS statistic and a sample count.
    for row in table.rows:
        ks, n = row[5], row[6]
        assert 0.0 <= ks <= 1.0
        assert n >= 3

    # Shuffle sizes exist for every shuffling job and fit reasonably.
    shuffle_size_rows = [row for row in table.rows
                         if row[1] == "shuffle" and row[2] == "size"]
    assert len(shuffle_size_rows) >= 4
    assert min(row[5] for row in shuffle_size_rows) < 0.2

    # Zero-spread read sizes are a point mass, not a ranked family.
    zero_spread = 0
    for row in table.rows:
        if row[1] != "hdfs_read" or row[2] != "size":
            continue
        _, trace = capture(row[0], 1.0, seed=DEFAULT_SEED)
        sizes = trace.flow_sizes("hdfs_read")
        if min(sizes) == max(sizes):
            zero_spread += 1
            assert (row[3], row[4], row[5]) == \
                ("degenerate", f"{sizes[0]:.3g}", 0.0), row
        else:
            assert row[3] != "degenerate", row
    assert zero_spread >= 2
