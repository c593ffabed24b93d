"""Tests for rack traffic matrices."""

from repro.analysis.matrix import rack_matrix, rack_matrix_table
from repro.capture.records import CaptureMeta, FlowRecord, JobTrace


def flow(src, dst, src_rack, dst_rack, size):
    return FlowRecord(src=src, dst=dst, src_rack=src_rack, dst_rack=dst_rack,
                      src_port=13562, dst_port=49000, size=size,
                      start=0.0, end=1.0, component="shuffle")


def make_trace():
    flows = [
        flow("a", "b", 0, 0, 100.0),
        flow("a", "c", 0, 1, 200.0),
        flow("c", "a", 1, 0, 50.0),
        flow("a", "c", 0, 1, 25.0),
    ]
    return JobTrace(meta=CaptureMeta(job_id="m", job_kind="t",
                                     input_bytes=1e9), flows=flows)


def test_rack_matrix_and_cross_share():
    matrix = rack_matrix(make_trace())
    assert matrix[(0, 0)] == 100.0
    assert matrix[(0, 1)] == 225.0
    assert matrix[(1, 0)] == 50.0
    table = rack_matrix_table(make_trace())
    assert table.rows  # one row per rack
    assert "cross-rack share" in table.notes[0]
