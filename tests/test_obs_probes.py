"""Tests for periodic probes: series maths, sampling, lifecycle."""

import pytest

from repro.api import run_capture
from repro.obs import ClusterProbes, ProbeLog, ProbeSeries, Telemetry

EXPECTED_SERIES = {"net.active_flows", "net.throughput_gbps",
                   "net.link_utilisation_mean", "net.link_utilisation_max",
                   "sim.backlog", "yarn.queue_depth"}


def test_probe_series_stats():
    series = ProbeSeries("x")
    series.append(0.0, 1.0)
    series.append(1.0, 5.0)
    series.append(2.0, 3.0)
    assert len(series) == 3
    assert series.mean == pytest.approx(3.0)
    assert series.peak == 5.0
    assert series.peak_time == 1.0


def test_empty_series_stats_are_zero():
    series = ProbeSeries("x")
    assert series.mean == 0.0
    assert series.peak == 0.0
    assert series.peak_time == 0.0


def test_probe_log_roundtrip():
    log = ProbeLog()
    log.sample("a", 0.0, 1.0)
    log.sample("a", 1.0, 2.0)
    log.sample("b", 0.0, 9.0)
    clone = ProbeLog.from_dict(log.to_dict())
    assert clone.series["a"].values == [1.0, 2.0]
    assert clone.series["b"].times == [0.0]
    assert clone.total_samples() == 3


def test_probes_reject_bad_interval():
    with pytest.raises(ValueError):
        ClusterProbes(cluster=None, interval=0.0)


def test_cluster_probes_sample_during_run():
    telemetry = Telemetry.enabled_in_memory(probe_interval=0.5)
    run_capture("terasort", input_gb=0.25, nodes=4, seed=5,
                telemetry=telemetry)
    probes = telemetry.probes
    assert EXPECTED_SERIES <= set(probes.series)
    flows = probes.series["net.active_flows"]
    # t=0 baseline plus one sample per interval across the run.
    assert len(flows) >= 3
    assert flows.times[0] == 0.0
    assert flows.times == sorted(flows.times)
    assert flows.peak > 0  # the job did move traffic
    # Utilisation is a fraction of capacity.
    for value in probes.series["net.link_utilisation_max"].values:
        assert 0.0 <= value <= 1.0 + 1e-9


def test_disabled_telemetry_schedules_no_probes():
    telemetry = Telemetry.disabled()
    run_capture("terasort", input_gb=0.25, nodes=4, seed=5,
                telemetry=telemetry)
    assert telemetry.probes.total_samples() == 0
    assert telemetry.probe_interval == 0.0


def test_unbounded_series_keep_legacy_dict_format():
    series = ProbeSeries("s")
    series.append(0.0, 1.0)
    assert set(series.to_dict()) == {"name", "t", "v"}
