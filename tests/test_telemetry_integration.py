"""End-to-end telemetry: span trees, byte-identity, campaign merging."""

import pickle

import pytest

from repro.api import run_capture
from repro.experiments.campaigns import CampaignConfig
from repro.experiments.runner import CampaignRunner, CapturePoint
from repro.obs import NULL_SINK, Telemetry, TelemetryConfig


def trace_bytes(trace):
    """Canonical byte content of a capture (meta + flows, in order)."""
    import json

    lines = [json.dumps({"meta": trace.meta.to_dict()}, sort_keys=True)]
    lines.extend(json.dumps(flow.to_dict(), sort_keys=True)
                 for flow in trace.flows)
    return "\n".join(lines)


@pytest.fixture(scope="module")
def observed_run():
    telemetry = Telemetry.enabled_in_memory(probe_interval=0.5)
    trace = run_capture("terasort", input_gb=0.25, nodes=4, seed=7,
                        telemetry=telemetry)
    return telemetry, trace


def test_span_tree_covers_the_pipeline(observed_run):
    telemetry, _ = observed_run
    kinds = {span.kind for span in telemetry.spans}
    assert {"job", "round", "stage", "task", "fetch", "hdfs_write",
            "flow"} <= kinds


def test_span_tree_shape(observed_run):
    telemetry, _ = observed_run
    spans = telemetry.spans
    jobs = [span for span in spans if span.kind == "job"]
    assert len(jobs) == 1
    assert jobs[0].parent_id is None
    rounds = [span for span in spans if span.kind == "round"]
    assert len(rounds) == 1
    assert rounds[0].parent_id == jobs[0].span_id
    stages = [span for span in spans if span.kind == "stage"]
    assert sorted(stage.name.rsplit(".", 1)[1] for stage in stages) == \
        ["map", "reduce"]
    assert all(stage.parent_id == rounds[0].span_id for stage in stages)
    tasks = [span for span in spans if span.kind == "task"]
    assert tasks and all("host" in task.attrs for task in tasks)


def test_span_times_nest_within_parents(observed_run):
    telemetry, _ = observed_run
    spans = telemetry.spans
    by_id = {span.span_id: span for span in spans}
    checked = 0
    for span in spans:
        parent = by_id.get(span.parent_id)
        if parent is None:
            continue
        assert span.start >= parent.start - 1e-9, (span, parent)
        assert span.end <= parent.end + 1e-9, (span, parent)
        checked += 1
    assert checked > 20


def test_flow_spans_match_network_counters(observed_run):
    telemetry, _ = observed_run
    flow_spans = [span for span in telemetry.spans if span.kind == "flow"]
    assert len(flow_spans) == \
        int(telemetry.registry.value("net.flows_completed"))
    # Job-pipeline flows hang off lifecycle spans; infrastructure flows
    # (control heartbeats, input seeding) legitimately float free.
    by_id = {span.span_id for span in telemetry.spans}
    shuffle = [span for span in flow_spans
               if span.attrs.get("component") == "shuffle"]
    assert shuffle
    assert all(span.parent_id in by_id for span in shuffle)


def test_every_span_is_closed(observed_run):
    telemetry, _ = observed_run
    assert telemetry.spans
    assert all(span.end is not None for span in telemetry.spans)
    assert telemetry.tracer.spans_emitted == len(telemetry.spans)


def test_registry_covers_every_layer(observed_run):
    telemetry, _ = observed_run
    value = telemetry.registry.value
    assert value("sim.events_fired") > 0
    assert value("net.flows_completed") > 0
    assert value("hdfs.blocks_written") > 0
    assert value("hdfs.nn.blocks_allocated") > 0
    assert value("yarn.containers_granted") > 0
    assert value("yarn.scheduler_selections", policy="fifo") > 0


def test_enabled_telemetry_keeps_capture_bytes_identical():
    baseline = run_capture("terasort", input_gb=0.25, nodes=4, seed=7)
    observed = run_capture("terasort", input_gb=0.25, nodes=4, seed=7,
                           telemetry=Telemetry.enabled_in_memory(
                               probe_interval=0.5))
    assert trace_bytes(baseline) == trace_bytes(observed)


def test_disabled_telemetry_emits_nothing():
    telemetry = Telemetry.disabled()
    run_capture("terasort", input_gb=0.25, nodes=4, seed=7,
                telemetry=telemetry)
    assert telemetry.sink is NULL_SINK
    assert telemetry.spans == []
    assert telemetry.tracer.spans_started == 0
    assert telemetry.tracer.spans_emitted == 0
    assert telemetry.probes.total_samples() == 0
    # Counters still work on the null path: they replaced the perf dicts.
    assert telemetry.registry.value("sim.events_fired") > 0


def test_telemetry_config_is_picklable_recipe():
    config = TelemetryConfig(enabled=True, probe_interval=2.0)
    clone = pickle.loads(pickle.dumps(config))
    telemetry = clone.build()
    assert telemetry.enabled
    assert telemetry.probe_interval == 2.0
    # Worker spans stay in the worker: only the registry travels back.
    assert telemetry.sink is NULL_SINK
    disabled = TelemetryConfig().build()
    assert disabled.sink is NULL_SINK


def _points(sizes=(0.125, 0.25)):
    campaign = CampaignConfig(nodes=4, hosts_per_rack=2, num_reducers=2)
    return [CapturePoint.from_campaign("terasort", size, 90 + index, campaign)
            for index, size in enumerate(sizes)]


def test_campaign_serial_telemetry_accumulates_in_place():
    telemetry = Telemetry.enabled_in_memory(probe_interval=0.5)
    runner = CampaignRunner(workers=1, telemetry=telemetry)
    outcomes = runner.run(_points())
    assert len(outcomes) == 2
    assert telemetry.registry.value("campaign.simulated") == 2.0
    assert telemetry.registry.value("campaign.parallel_simulated") == 0.0
    # Two jobs' spans share the parent sink.
    assert len([s for s in telemetry.spans if s.kind == "job"]) == 2
    assert telemetry.registry.value("net.flows_completed") > 0


def test_campaign_parallel_telemetry_absorbs_workers():
    points = _points()
    serial = CampaignRunner(workers=1).run(points)

    telemetry = Telemetry.enabled_in_memory(probe_interval=0.5)
    runner = CampaignRunner(workers=2, telemetry=telemetry)
    parallel = runner.run(points)

    # Same bytes regardless of execution mode, telemetry on or off.
    for (_, serial_trace), (_, parallel_trace) in zip(serial, parallel):
        assert trace_bytes(serial_trace) == trace_bytes(parallel_trace)
    assert telemetry.registry.value("campaign.parallel_simulated") == 2.0
    # Workers' engine counters came back and merged.
    assert telemetry.registry.value("sim.events_fired") > 0
    assert telemetry.registry.value("net.flows_completed") > 0
    assert telemetry.registry.value("campaign.simulated") == 2


def test_runner_counters_live_on_the_registry():
    runner = CampaignRunner(workers=1)
    points = _points(sizes=(0.125,)) * 2  # the same point twice
    runner.run(points)
    value = runner.telemetry.registry.value
    assert value("campaign.points") == 2
    assert value("campaign.simulated") == 1  # duplicate point simulated once
    assert value("campaign.parallel_simulated") == 0
    assert runner.manifest()["stats"]["points_completed"] == 2
