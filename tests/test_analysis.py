"""Unit tests for the analysis package."""

import pytest

from repro.analysis.breakdown import component_breakdown
from repro.analysis.compare import compare_traces, validation_summary
from repro.analysis.jct import makespan, slowdown
from repro.analysis.tables import Table, cdf_table, render_table
from repro.capture.records import CaptureMeta, FlowRecord, JobTrace
from repro.mapreduce.result import JobResult, RoundResult


def flow(component="shuffle", size=100.0, start=0.0, src_rack=0, dst_rack=1):
    return FlowRecord(src="a", dst="b", src_rack=src_rack, dst_rack=dst_rack,
                      src_port=13562, dst_port=50000, size=size,
                      start=start, end=start + 1.0, component=component)


def trace(flows, input_bytes=1e9, job_id="j", kind="terasort"):
    return JobTrace(meta=CaptureMeta(job_id=job_id, job_kind=kind,
                                     input_bytes=input_bytes,
                                     submit_time=0.0, finish_time=100.0),
                    flows=flows)


# -- tables -----------------------------------------------------------------------


def test_table_add_row_validates_width():
    table = Table(title="t", headers=["a", "b"])
    table.add_row(1, 2)
    with pytest.raises(ValueError):
        table.add_row(1)


def test_table_column_access():
    table = Table(title="t", headers=["a", "b"])
    table.add_row(1, "x")
    table.add_row(2, "y")
    assert table.column("a") == [1, 2]
    assert table.column("b") == ["x", "y"]


def test_render_table_alignment_and_notes():
    table = Table(title="demo", headers=["name", "value"],
                  notes=["a footnote"])
    table.add_row("longish-name", 1.5)
    text = render_table(table)
    lines = text.splitlines()
    assert lines[0] == "== demo =="
    assert "name" in lines[1] and "value" in lines[1]
    assert set(lines[2]) <= {"-", " "}
    assert "longish-name" in lines[3]
    assert "note: a footnote" in lines[-1]


def test_render_table_float_formatting():
    table = Table(title="t", headers=["v"])
    table.add_row(0.0)
    table.add_row(1234567.0)
    table.add_row(0.0001)
    text = render_table(table)
    assert "1.235e+06" in text
    assert "1.000e-04" in text


def test_cdf_table_tracks_fit_column():
    samples = list(range(1, 101))
    table = cdf_table("cdf", samples, fitted_cdf=lambda x: x / 100.0, points=5)
    assert table.headers[-1] == "fit"
    for row in table.rows:
        assert abs(row[2] - row[3]) < 0.05


def test_cdf_table_empty_and_render():
    table = cdf_table("empty", [])
    assert table.rows == []
    assert "no samples" in render_table(table)
    assert "cdf" in render_table(cdf_table("cdf", [1.0, 2.0]))


# -- breakdown ---------------------------------------------------------------------


def test_component_breakdown_shares_sum_to_one():
    t = trace([flow("shuffle", 300), flow("hdfs_read", 100),
               flow("control", 1)])
    breakdown = component_breakdown(t)
    assert breakdown["shuffle"]["bytes"] == 300
    assert breakdown["shuffle"]["flows"] == 1
    total_share = sum(stats["share"] for stats in breakdown.values())
    assert total_share == pytest.approx(1.0)


# -- compare ------------------------------------------------------------------------


def test_compare_traces_identical_is_perfect():
    flows = [flow("shuffle", size=float(s), start=float(s))
             for s in range(10, 60)]
    comparison = compare_traces(trace(flows), trace(flows))
    shuffle = comparison["shuffle"]
    assert shuffle.count_error == 0.0
    assert shuffle.volume_error == 0.0
    assert shuffle.size_ks.statistic == 0.0
    assert shuffle.interarrival_ks.statistic == 0.0


def test_compare_traces_detects_volume_gap():
    a = trace([flow("shuffle", 100)] * 10)
    b = trace([flow("shuffle", 100)] * 5)
    comparison = compare_traces(a, b)
    assert comparison["shuffle"].count_error == pytest.approx(0.5)
    assert comparison["shuffle"].volume_error == pytest.approx(0.5)


def test_compare_missing_component_inf_error():
    a = trace([])
    b = trace([flow("shuffle", 10)])
    comparison = compare_traces(a, b, components=["shuffle"])
    assert comparison["shuffle"].count_error == float("inf")


def test_validation_summary_aggregates_data_components():
    flows = [flow("shuffle", size=float(s), start=float(s)) for s in range(20)]
    summary = validation_summary(trace(flows), trace(flows))
    assert summary.mean_size_ks == 0.0
    assert summary.mean_count_error == 0.0
    assert summary.mean_volume_error == 0.0
    assert "shuffle" in summary.components


# -- jct ----------------------------------------------------------------------------


def result(job_id, kind, submit, finish):
    rounds = [RoundResult(app_id=f"{job_id}-r00", round_index=0,
                          submit_time=submit, finish_time=finish)]
    return JobResult(job_id=job_id, kind=kind, input_bytes=1e9, rounds=rounds)


def test_makespan_and_slowdown():
    results = [result("a", "x", 0, 10), result("b", "x", 5, 30)]
    assert makespan(results) == pytest.approx(30.0)
    assert makespan([]) == 0.0
    factors = slowdown(results, {"a": 5.0, "b": 25.0})
    assert factors["a"] == pytest.approx(2.0)
    assert factors["b"] == pytest.approx(1.0)
