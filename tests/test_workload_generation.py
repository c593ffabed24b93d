"""Tests for ModelBundle and synthetic workload generation."""

import pytest

from repro.cluster.config import HadoopConfig
from repro.cluster.units import GB, MB
from repro.experiments.campaigns import capture_campaign
from repro.generation.replay import replay_trace
from repro.generation.workload import ScheduledJob, generate_workload_trace
from repro.modeling.bundle import ModelBundle


@pytest.fixture(scope="module")
def bundle():
    traces = []
    for kind in ("terasort", "grep"):
        traces.extend(capture_campaign(kind, sizes_gb=[0.125, 0.25], seed=11))
    return ModelBundle.fit(traces)


def test_bundle_fit_groups_by_kind(bundle):
    assert bundle.kinds() == ["grep", "terasort"]
    assert len(bundle) == 2
    assert "terasort" in bundle
    assert bundle.get("terasort").kind == "terasort"


def test_bundle_get_unknown_kind_raises(bundle):
    with pytest.raises(KeyError):
        bundle.get("mystery")
    with pytest.raises(ValueError):
        ModelBundle.fit([])


def test_bundle_save_and_load(tmp_path, bundle):
    paths = bundle.save(tmp_path / "models")
    assert len(paths) == 2
    loaded = ModelBundle.load(tmp_path / "models")
    assert loaded.kinds() == bundle.kinds()
    with pytest.raises(FileNotFoundError):
        ModelBundle.load(tmp_path / "empty")


def test_generate_workload_merges_jobs(bundle):
    schedule = [
        ScheduledJob("terasort", input_gb=0.25, start_s=0.0),
        ScheduledJob("grep", input_gb=0.25, start_s=10.0),
        ScheduledJob("terasort", input_gb=0.125, start_s=20.0),
    ]
    workload = generate_workload_trace(bundle, schedule, seed=3)
    assert workload.meta.job_kind == "workload"
    assert workload.meta.input_bytes == pytest.approx(0.625 * GB)
    job_ids = {flow.job_id for flow in workload.flows}
    assert len(job_ids) == 3
    starts = [flow.start for flow in workload.flows]
    assert starts == sorted(starts)
    # The second job's flows begin at/after its scheduled start.
    grep_flows = [f for f in workload.flows if "grep" in f.job_id]
    assert min(f.start for f in grep_flows) >= 10.0


def test_workload_schedule_validation(bundle):
    with pytest.raises(ValueError):
        generate_workload_trace(bundle, [])
    with pytest.raises(ValueError):
        ScheduledJob("terasort", input_gb=-1.0)
    with pytest.raises(ValueError):
        ScheduledJob("terasort", input_gb=1.0, start_s=-5.0)
    with pytest.raises(KeyError):
        generate_workload_trace(bundle, [ScheduledJob("kmeans", 0.1)])


def test_workload_is_replayable(bundle):
    schedule = [ScheduledJob("terasort", input_gb=0.25, start_s=0.0),
                ScheduledJob("terasort", input_gb=0.25, start_s=2.0)]
    workload = generate_workload_trace(bundle, schedule, seed=5)
    report = replay_trace(workload)
    assert report.flow_count == len(workload.flows)
    assert report.makespan >= 2.0


def test_workload_generation_is_deterministic(bundle):
    schedule = [ScheduledJob("grep", input_gb=0.25)]
    a = generate_workload_trace(bundle, schedule, seed=6)
    b = generate_workload_trace(bundle, schedule, seed=6)
    assert [(f.size, f.start) for f in a.flows] == \
           [(f.size, f.start) for f in b.flows]
