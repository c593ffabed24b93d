"""Tests for workload suites and arrival processes."""

import numpy as np
import pytest

from repro.cluster.config import ClusterSpec, HadoopConfig
from repro.cluster.units import MB
from repro.workloads import (
    ANALYTICS_MIX,
    MICRO_MIX,
    PoissonArrivals,
    SHUFFLE_HEAVY_MIX,
    UniformArrivals,
    WorkloadSuite,
)
from repro.workloads.suite import MixEntry


def test_poisson_arrivals_sorted_and_start_at_zero():
    process = PoissonArrivals(rate=0.5)
    times = process.sample(20, np.random.default_rng(0))
    assert len(times) == 20
    assert times[0] == 0.0
    assert times == sorted(times)
    # Mean gap should be near 1/rate = 2s.
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert sum(gaps) / len(gaps) == pytest.approx(2.0, rel=0.5)


def test_poisson_rejects_bad_rate():
    with pytest.raises(ValueError):
        PoissonArrivals(rate=0.0)


def test_uniform_arrivals_even_spacing():
    times = UniformArrivals(span=10.0).sample(5, np.random.default_rng(0))
    assert times == [0.0, 2.5, 5.0, 7.5, 10.0]
    assert UniformArrivals(span=10.0).sample(1, np.random.default_rng(0)) == [0.0]


def test_mix_entry_validation():
    with pytest.raises(ValueError):
        MixEntry("terasort", input_gb=0.5, weight=0.0)
    with pytest.raises(ValueError):
        MixEntry("terasort", input_gb=-1.0)
    with pytest.raises(ValueError):
        WorkloadSuite([])


def test_sample_jobs_follows_weights():
    suite = WorkloadSuite([MixEntry("grep", 0.25, weight=9.0),
                           MixEntry("terasort", 0.25, weight=1.0)])
    specs = suite.sample_jobs(200, np.random.default_rng(1))
    kinds = [spec.kind for spec in specs]
    assert kinds.count("grep") > 140
    assert len({spec.job_id for spec in specs}) == 200  # unique ids


def test_suite_run_produces_results_and_traces():
    suite = WorkloadSuite(
        [MixEntry("grep", 0.125), MixEntry("wordcount", 0.125)],
        arrivals=UniformArrivals(span=4.0), name="test")
    config = HadoopConfig(block_size=32 * MB, num_reducers=2)
    outcome = suite.run(count=3, cluster_spec=ClusterSpec(num_nodes=4),
                        config=config, seed=5)
    assert len(outcome.results) == 3
    assert len(outcome.traces) == 3
    assert outcome.makespan > 0
    assert outcome.mean_jct() > 0
    assert outcome.arrival_times == [0.0, 2.0, 4.0]
    # All jobs completed and produced flows.
    assert all(result.finish_time > 0 for result in outcome.results)
    assert all(trace.flow_count() > 0 for trace in outcome.traces)


def test_suite_total_bytes_deduplicates_shared_control_flows():
    suite = WorkloadSuite([MixEntry("grep", 0.125)],
                          arrivals=UniformArrivals(span=1.0))
    config = HadoopConfig(block_size=32 * MB, num_reducers=2)
    outcome = suite.run(count=2, cluster_spec=ClusterSpec(num_nodes=4),
                        config=config, seed=7)
    naive_sum = sum(trace.total_bytes() for trace in outcome.traces)
    assert outcome.total_bytes() <= naive_sum


def test_traces_by_kind():
    suite = WorkloadSuite([MixEntry("grep", 0.125)], name="g")
    config = HadoopConfig(block_size=32 * MB, num_reducers=2)
    outcome = suite.run(count=2, cluster_spec=ClusterSpec(num_nodes=4),
                        config=config, seed=8)
    grouped = outcome.traces_by_kind()
    assert set(grouped) == {"grep"}
    assert len(grouped["grep"]) == 2


def test_canonical_mixes_are_well_formed():
    for mix in (MICRO_MIX, SHUFFLE_HEAVY_MIX, ANALYTICS_MIX):
        assert mix
        assert all(entry.weight > 0 for entry in mix)
        WorkloadSuite(mix)  # constructable
