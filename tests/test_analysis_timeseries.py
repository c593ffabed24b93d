"""Tests for the traffic-over-time analysis."""

import numpy as np
import pytest

from repro.analysis.timeseries import (
    component_activity_spans,
    phase_profile,
    throughput_series,
)
from repro.capture.records import CaptureMeta, FlowRecord, JobTrace


def flow(component, size, start, end, dport=49000):
    return FlowRecord(src="h000", dst="h001", src_rack=0, dst_rack=0,
                      src_port=13562, dst_port=dport, size=size,
                      start=start, end=end, component=component)


def make_trace(flows, submit=0.0):
    meta = CaptureMeta(job_id="j", job_kind="terasort", input_bytes=1e9,
                       submit_time=submit, finish_time=submit + 100.0)
    return JobTrace(meta=meta, flows=flows)


def test_series_conserves_bytes():
    trace = make_trace([
        flow("hdfs_read", 1000.0, 0.0, 2.0),
        flow("shuffle", 5000.0, 1.0, 4.5),
        flow("hdfs_write", 2000.0, 4.0, 6.0),
    ])
    series = throughput_series(trace, bin_seconds=1.0)
    assert series["hdfs_read"].sum() == pytest.approx(1000.0)
    assert series["shuffle"].sum() == pytest.approx(5000.0)
    assert series["hdfs_write"].sum() == pytest.approx(2000.0)


def test_series_spreads_flow_over_its_lifetime():
    trace = make_trace([flow("shuffle", 4000.0, 0.0, 4.0)])
    series = throughput_series(trace, bin_seconds=1.0)
    # Uniform rate: 1000 B in each of the four bins.
    assert list(series["shuffle"][:4]) == pytest.approx([1000.0] * 4)


def test_zero_duration_flow_lands_in_one_bin():
    trace = make_trace([flow("shuffle", 500.0, 2.5, 2.5)])
    series = throughput_series(trace, bin_seconds=1.0)
    assert series["shuffle"][2] == pytest.approx(500.0)
    assert series["shuffle"].sum() == pytest.approx(500.0)


def test_series_relative_to_submit_time():
    trace = make_trace([flow("shuffle", 100.0, 12.0, 13.0)], submit=10.0)
    series = throughput_series(trace, bin_seconds=1.0)
    assert series["shuffle"][2] == pytest.approx(100.0)


def test_series_rejects_bad_bins():
    with pytest.raises(ValueError):
        throughput_series(make_trace([]), bin_seconds=0.0)


def test_activity_spans():
    trace = make_trace([
        flow("shuffle", 1.0, 2.0, 5.0),
        flow("shuffle", 1.0, 4.0, 9.0),
    ])
    spans = component_activity_spans(trace)
    assert spans["shuffle"] == (2.0, 9.0)
    assert "hdfs_read" not in spans


def test_phase_profile_table_shape():
    trace = make_trace([
        flow("hdfs_read", 1048576.0, 0.0, 1.0),
        flow("shuffle", 2097152.0, 1.0, 3.0),
    ])
    table = phase_profile(trace, bin_seconds=1.0)
    assert table.headers[0] == "t (s)"
    assert any("shuffle" in h for h in table.headers)
    # 1 MiB in bin 0 of the read series -> 1 MiB/s.
    read_col = table.headers.index("hdfs_read MiB/s")
    assert table.rows[0][read_col] == pytest.approx(1.0)


# -- probe-output-driven cases (telemetry integration) -------------------------------


@pytest.fixture(scope="module")
def probed_capture():
    from repro.api import run_capture
    from repro.obs import Telemetry

    telemetry = Telemetry.enabled_in_memory(probe_interval=0.5)
    trace = run_capture("terasort", input_gb=0.25, nodes=4, seed=11,
                        telemetry=telemetry)
    return telemetry, trace


def test_series_conserves_bytes_on_real_capture(probed_capture):
    _, trace = probed_capture
    series = throughput_series(trace, bin_seconds=1.0)
    # Per component (the series omits control-plane flows), binning
    # must conserve every byte the capture recorded.
    for component, values in series.items():
        if component == "time":
            continue
        expected = sum(flow.size for flow in trace.flows
                       if flow.component == component)
        assert values.sum() == pytest.approx(expected), component


def test_activity_spans_overlap_probe_activity(probed_capture):
    telemetry, trace = probed_capture
    spans = component_activity_spans(trace)
    assert "shuffle" in spans
    shuffle_start, shuffle_end = spans["shuffle"]
    # While the shuffle was active, the probes saw live flows.
    active = telemetry.probes.series["net.active_flows"]
    during = [value for t, value in zip(active.times, active.values)
              if shuffle_start <= t <= shuffle_end]
    assert during and max(during) > 0


def test_probe_throughput_agrees_with_series_activity(probed_capture):
    telemetry, trace = probed_capture
    series = throughput_series(trace, bin_seconds=1.0)
    assert any(values.max() > 0 for values in series.values())
    throughput = telemetry.probes.series["net.throughput_gbps"]
    assert throughput.peak > 0
    # Probe peak happens while the trace still shows traffic.
    start, end = trace.time_range() if hasattr(trace, "time_range") else (
        min(flow.start for flow in trace.flows),
        max(flow.end for flow in trace.flows))
    assert start - 1.0 <= throughput.peak_time <= end + 1.0
