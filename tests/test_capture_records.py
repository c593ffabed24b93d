"""Unit tests for flow records and job traces."""

import dataclasses

import pytest

from repro.capture.records import (
    CaptureMeta,
    FlowRecord,
    JobTrace,
    TrafficComponent,
    load_traces,
    save_traces,
)


def flow(src="h001", dst="h002", size=100.0, start=0.0, end=1.0,
         component="shuffle", src_rack=0, dst_rack=1, **kwargs):
    return FlowRecord(src=src, dst=dst, src_rack=src_rack, dst_rack=dst_rack,
                      src_port=kwargs.pop("src_port", 13562),
                      dst_port=kwargs.pop("dst_port", 50000),
                      size=size, start=start, end=end, component=component,
                      **kwargs)


def make_trace():
    meta = CaptureMeta(job_id="j1", job_kind="terasort", input_bytes=1e9,
                       submit_time=10.0, finish_time=40.0)
    flows = [
        flow(size=100, start=10.0, end=11.0, component="shuffle"),
        flow(size=200, start=12.0, end=15.0, component="shuffle"),
        flow(size=50, start=20.0, end=21.0, component="hdfs_read",
             src_rack=1, dst_rack=1),
        flow(size=10, start=11.0, end=11.1, component="control"),
    ]
    return JobTrace(meta=meta, flows=flows)


def test_flow_record_computed_fields():
    record = flow(size=100, start=1.0, end=3.0)
    assert record.duration == pytest.approx(2.0)
    assert record.mean_rate == pytest.approx(50.0)
    assert record.cross_rack


def test_flow_record_to_dict_equals_asdict():
    record = FlowRecord(src="h007", dst="h012", src_rack=2, dst_rack=3,
                        src_port=50010, dst_port=41234, size=4096.5,
                        start=1.25, end=2.5, component="hdfs_write",
                        service="datanode", job_id="job_0003", flow_id=17)
    for spec in dataclasses.fields(FlowRecord):
        if spec.default is not dataclasses.MISSING:
            assert getattr(record, spec.name) != spec.default, spec.name
    # Same values and the same key order: JSONL bytes follow that order.
    assert list(record.to_dict().items()) == \
        list(dataclasses.asdict(record).items())


def test_flow_record_validation():
    with pytest.raises(ValueError):
        flow(size=-1)
    with pytest.raises(ValueError):
        flow(start=5.0, end=1.0)


def test_zero_duration_flow_rate_is_zero():
    record = flow(start=1.0, end=1.0)
    assert record.mean_rate == 0.0


def test_trace_component_queries():
    trace = make_trace()
    assert trace.flow_count() == 4
    assert trace.flow_count(TrafficComponent.SHUFFLE) == 2
    assert trace.total_bytes(TrafficComponent.SHUFFLE) == 300
    assert trace.total_bytes() == 360
    assert trace.flow_sizes("shuffle") == [100, 200]
    assert set(trace.components_present()) == {"shuffle", "hdfs_read", "control"}


def test_flow_starts_relative_to_submit():
    trace = make_trace()
    assert trace.flow_starts("shuffle") == [0.0, 2.0]
    assert trace.interarrivals("shuffle") == [2.0]
    assert trace.interarrivals("hdfs_read") == []


def test_cross_rack_bytes():
    trace = make_trace()
    # hdfs_read flow is rack-local; the rest cross racks.
    assert trace.cross_rack_bytes() == 310
    assert trace.cross_rack_bytes("hdfs_read") == 0


def test_meta_completion_time():
    trace = make_trace()
    assert trace.meta.completion_time == pytest.approx(30.0)


def test_jsonl_roundtrip(tmp_path):
    trace = make_trace()
    path = tmp_path / "trace.jsonl"
    trace.to_jsonl(path)
    loaded = JobTrace.from_jsonl(path)
    assert loaded.meta == trace.meta
    assert loaded.flows == trace.flows


def test_jsonl_rejects_missing_meta(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"src": "x"}\n', encoding="utf-8")
    with pytest.raises(ValueError):
        JobTrace.from_jsonl(path)


def test_save_and_load_directory(tmp_path):
    traces = [make_trace()]
    traces[0].meta.job_id = "alpha"
    paths = save_traces(traces, tmp_path / "captures")
    assert len(paths) == 1
    loaded = load_traces(tmp_path / "captures")
    assert len(loaded) == 1
    assert loaded[0].meta.job_id == "alpha"
