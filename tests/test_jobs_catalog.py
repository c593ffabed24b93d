"""Tests for the workload library: profiles, catalog, make_job."""

import numpy as np
import pytest

from repro.cluster.config import ClusterSpec
from repro.cluster.units import MB
from repro.jobs import JobProfile, JobSpec, job_catalog, make_job
from repro.jobs.base import register_profile
from repro.mapreduce.cluster import HadoopCluster

EXPECTED_KINDS = {"terasort", "sort", "wordcount", "grep", "pagerank",
                  "kmeans", "join", "teragen", "dfsio-write", "dfsio-read",
                  "bayes", "nutchindexing"}


def test_catalog_contains_the_full_mix():
    assert set(job_catalog()) == EXPECTED_KINDS


def test_every_profile_constructs_and_validates():
    for kind, factory in job_catalog().items():
        profile = factory()
        assert profile.kind == kind
        assert profile.map_cpu_rate > 0
        assert profile.iterations >= 1


def test_make_job_builds_spec_with_defaults():
    spec = make_job("terasort", input_gb=2.0)
    assert spec.kind == "terasort"
    assert spec.input_bytes == 2.0 * 1024 * MB
    # Unnamed until the cluster that runs it names it; paths follow.
    assert (spec.job_id, spec.input_path, spec.output_path) == ("", "", "")
    spec.set_id("job_terasort_0001")
    assert spec.input_path == "/data/job_terasort_0001/input"
    assert spec.output_path == "/data/job_terasort_0001/output"
    named = make_job("terasort", input_gb=2.0, job_id="ts")
    assert named.input_path == "/data/ts/input"


def test_make_job_unique_ids():
    cluster = HadoopCluster(ClusterSpec(num_nodes=2, hosts_per_rack=2))
    a = cluster.submit_job(make_job("grep", input_gb=0.0625)).spec
    b = cluster.submit_job(make_job("grep", input_gb=0.0625)).spec
    assert (a.job_id, b.job_id) == ("job_grep_0001", "job_grep_0002")


def test_make_job_profile_overrides():
    spec = make_job("pagerank", input_gb=1.0, iterations=5)
    assert spec.profile.iterations == 5
    spec = make_job("terasort", input_gb=1.0, map_selectivity=0.5)
    assert spec.profile.map_selectivity == 0.5


def test_make_job_unknown_kind():
    with pytest.raises(ValueError):
        make_job("bitcoin-miner", input_gb=1.0)


def test_job_spec_validation_and_overrides():
    with pytest.raises(ValueError):
        JobSpec(profile=job_catalog()["grep"](), input_bytes=-1.0)
    spec = make_job("grep", input_gb=1.0)
    changed = spec.with_overrides(num_reducers=7, queue="prod")
    assert changed.num_reducers == 7
    assert changed.queue == "prod"
    assert spec.num_reducers is None  # original untouched


def test_profile_validation():
    with pytest.raises(ValueError):
        JobProfile(kind="x", map_selectivity=-0.1)
    with pytest.raises(ValueError):
        JobProfile(kind="x", map_cpu_rate=0.0)
    with pytest.raises(ValueError):
        JobProfile(kind="x", iterations=0)
    with pytest.raises(ValueError):
        JobProfile(kind="x", partition_skew=-1.0)


def test_partition_weights_sum_to_one_and_respect_skew():
    rng = np.random.default_rng(0)
    uniform = JobProfile(kind="u", partition_skew=0.0)
    weights = uniform.partition_weights(8, rng)
    assert weights.sum() == pytest.approx(1.0)
    assert np.allclose(weights, 1.0 / 8)

    skewed = JobProfile(kind="s", partition_skew=1.5)
    weights = skewed.partition_weights(8, rng)
    assert weights.sum() == pytest.approx(1.0)
    assert weights.max() / weights.min() > 5.0  # visible skew
    with pytest.raises(ValueError):
        skewed.partition_weights(0, rng)


def test_partition_weight_order_varies_per_job():
    profile = JobProfile(kind="s", partition_skew=1.0)
    a = profile.partition_weights(8, np.random.default_rng(1))
    b = profile.partition_weights(8, np.random.default_rng(2))
    assert sorted(a) == pytest.approx(sorted(b))  # same shape
    assert list(a) != list(b)  # shuffled placement


def test_generator_profiles_are_map_only():
    for kind in ("teragen", "dfsio-write", "dfsio-read"):
        profile = job_catalog()[kind]()
        assert profile.map_only
    assert job_catalog()["teragen"]().is_generator
    assert not job_catalog()["dfsio-read"]().is_generator


def test_register_profile_rejects_duplicates():
    with pytest.raises(ValueError):
        @register_profile("terasort")
        def duplicate(**kwargs):  # pragma: no cover - never called
            return None


def test_iterative_profiles_chain_correctly():
    pagerank = job_catalog()["pagerank"]()
    assert pagerank.iterations == 3
    assert not pagerank.reread_input
    kmeans = job_catalog()["kmeans"]()
    assert kmeans.reread_input
