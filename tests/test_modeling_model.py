"""Tests for summary statistics, scaling laws and the assembled job traffic model."""

import numpy as np
import pytest

from repro.capture.records import CaptureMeta, FlowRecord, JobTrace
from repro.cluster.units import GB
from repro.modeling.empirical import summarize
from repro.modeling.model import JobTrafficModel, fit_job_model
from repro.modeling.scaling import LinearLaw


def make_trace(job_id, input_gb, shuffle_sizes, read_sizes=(), start_gap=1.0):
    meta = CaptureMeta(job_id=job_id, job_kind="testjob",
                       input_bytes=input_gb * GB,
                       submit_time=0.0, finish_time=10.0 * input_gb,
                       cluster={"num_nodes": 8, "hosts_per_rack": 4},
                       hadoop={"replication": 3})
    flows = []
    t = 1.0
    for size in shuffle_sizes:
        flows.append(FlowRecord(src="h001", dst="h002", src_rack=0, dst_rack=0,
                                src_port=13562, dst_port=50001, size=size,
                                start=t, end=t + 1, component="shuffle"))
        t += start_gap
    t = 0.5
    for size in read_sizes:
        flows.append(FlowRecord(src="h003", dst="h004", src_rack=0, dst_rack=0,
                                src_port=50010, dst_port=50002, size=size,
                                start=t, end=t + 1, component="hdfs_read"))
        t += start_gap
    return JobTrace(meta=meta, flows=flows)


# -- summarize -------------------------------------------------------------------


def test_summarize():
    stats = summarize([1.0, 2.0, 3.0, 4.0])
    assert stats["n"] == 4
    assert stats["mean"] == 2.5
    assert stats["sum"] == 10.0
    assert summarize([])["n"] == 0


# -- LinearLaw --------------------------------------------------------------------


def test_linear_law_fit_and_predict():
    law = LinearLaw.fit([1.0, 2.0, 4.0], [10.0, 20.0, 40.0])
    assert law.slope == pytest.approx(10.0)
    assert law.intercept == pytest.approx(0.0, abs=1e-9)
    assert law.predict(8.0) == pytest.approx(80.0)


def test_linear_law_single_point_goes_through_origin():
    law = LinearLaw.fit([2.0], [10.0])
    assert law.predict(4.0) == pytest.approx(20.0)


def test_linear_law_constant_x_uses_mean():
    law = LinearLaw.fit([2.0, 2.0], [10.0, 14.0])
    assert law.predict(2.0) == pytest.approx(12.0)


def test_linear_law_nonneg_clamps():
    law = LinearLaw(slope=1.0, intercept=-10.0)
    assert law.predict_nonneg(3.0) == 0.0


def test_linear_law_roundtrip_and_validation():
    law = LinearLaw(2.5, -1.0)
    assert LinearLaw.from_dict(law.to_dict()) == law
    with pytest.raises(ValueError):
        LinearLaw.fit([], [])
    with pytest.raises(ValueError):
        LinearLaw.fit([1.0], [1.0, 2.0])


# -- fit_job_model ------------------------------------------------------------------


def test_fit_job_model_counts_scale_linearly():
    traces = [
        make_trace("a", 1.0, shuffle_sizes=[100.0] * 10),
        make_trace("b", 2.0, shuffle_sizes=[100.0] * 20),
        make_trace("c", 4.0, shuffle_sizes=[100.0] * 40),
    ]
    model = fit_job_model(traces)
    shuffle = model.components["shuffle"]
    assert shuffle.expected_count(8.0) == 80
    assert shuffle.expected_volume(8.0) == pytest.approx(8000.0, rel=0.01)
    assert model.kind == "testjob"
    assert model.num_traces == 3


def test_fit_job_model_absent_component_is_skipped():
    traces = [make_trace("a", 1.0, shuffle_sizes=[100.0] * 5)]
    model = fit_job_model(traces)
    assert "hdfs_write" not in model.components
    assert model.component("hdfs_write") is None


def test_fit_job_model_start_offsets_preserved():
    traces = [make_trace("a", 1.0, shuffle_sizes=[100.0] * 5,
                         read_sizes=[50.0] * 5)]
    model = fit_job_model(traces)
    # Reads start at 0.5, shuffle at 1.0 (relative to submit).
    assert model.components["hdfs_read"].start_law.predict(1.0) == pytest.approx(0.5)
    assert model.components["shuffle"].start_law.predict(1.0) == pytest.approx(1.0)


def test_fit_job_model_rejects_mixed_kinds():
    a = make_trace("a", 1.0, shuffle_sizes=[1.0])
    b = make_trace("b", 1.0, shuffle_sizes=[1.0])
    b.meta.job_kind = "other"
    with pytest.raises(ValueError):
        fit_job_model([a, b])
    with pytest.raises(ValueError):
        fit_job_model([])


def test_model_json_roundtrip(tmp_path):
    traces = [make_trace("a", 1.0, shuffle_sizes=list(np.linspace(10, 500, 30)))]
    model = fit_job_model(traces)
    path = tmp_path / "model.json"
    model.to_json(path)
    loaded = JobTrafficModel.from_json(path)
    assert loaded.kind == model.kind
    assert set(loaded.components) == set(model.components)
    original = model.components["shuffle"]
    clone = loaded.components["shuffle"]
    assert clone.count_law == original.count_law
    assert np.allclose(clone.size_dist.cdf([50.0, 100.0]),
                       original.size_dist.cdf([50.0, 100.0]))


def test_duration_law_fits_completion_times():
    traces = [
        make_trace("a", 1.0, shuffle_sizes=[1.0]),
        make_trace("b", 2.0, shuffle_sizes=[1.0]),
    ]
    model = fit_job_model(traces)
    assert model.expected_duration(3.0) == pytest.approx(30.0)
