"""Unit tests for leave-one-out scaling-law cross-validation."""

import pytest

from repro.capture.records import CaptureMeta, FlowRecord, JobTrace
from repro.cluster.units import GB
from repro.modeling.crossval import HoldoutScore, leave_one_out


def trace(input_gb, n_shuffle, flow_size=1000.0):
    meta = CaptureMeta(job_id=f"j{input_gb}", job_kind="testjob",
                       input_bytes=input_gb * GB,
                       submit_time=0.0, finish_time=10.0)
    flows = [FlowRecord(src="a", dst="b", src_rack=0, dst_rack=0,
                        src_port=13562, dst_port=49000 + i, size=flow_size,
                        start=float(i), end=float(i) + 1, component="shuffle")
             for i in range(n_shuffle)]
    return JobTrace(meta=meta, flows=flows)


def test_perfectly_linear_data_validates_perfectly():
    traces = [trace(1.0, 10), trace(2.0, 20), trace(4.0, 40), trace(8.0, 80)]
    report = leave_one_out(traces)
    shuffle_scores = [s for s in report.scores if s.component == "shuffle"]
    assert len(shuffle_scores) == 4
    for score in shuffle_scores:
        assert score.count_error == pytest.approx(0.0, abs=0.02)
        assert score.volume_error == pytest.approx(0.0, abs=0.02)
    assert report.mean_volume_error() < 0.02


def test_nonlinear_data_shows_errors():
    # Quadratic counts break the linear law at the extremes.
    traces = [trace(1.0, 10), trace(2.0, 40), trace(4.0, 160),
              trace(8.0, 640)]
    report = leave_one_out(traces)
    assert report.mean_volume_error() > 0.1


def test_requires_three_traces():
    with pytest.raises(ValueError):
        leave_one_out([trace(1.0, 10), trace(2.0, 20)])


def test_component_absent_from_training_scores_inf():
    # Only the held-out trace has shuffle flows.
    traces = [trace(1.0, 0), trace(2.0, 0), trace(4.0, 25)]
    report = leave_one_out(traces)
    holdout = [s for s in report.scores
               if s.component == "shuffle" and s.input_gb == 4.0]
    assert holdout
    assert holdout[0].predicted_count == 0
    # Nothing predicted against a real population: 100% volume error.
    assert holdout[0].volume_error == 1.0
    assert report.mean_volume_error() <= 1.0


def test_holdout_score_zero_actual():
    score = HoldoutScore(input_gb=1.0, component="shuffle",
                         actual_count=0, predicted_count=0,
                         actual_volume=0.0, predicted_volume=0.0)
    assert score.count_error == 0.0
    assert score.volume_error == 0.0
