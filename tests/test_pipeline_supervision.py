"""The built-in pipeline on the supervised executor: what a node keeps
when it runs in a worker, what its telemetry counts, and what the run's
worker count may not touch."""

import json

import pytest

from repro.experiments.campaigns import CampaignConfig
from repro.experiments.dag import (
    CACHED,
    DONE,
    QUARANTINED,
    DAGRunner,
    PipelineDAG,
    PipelineFailed,
)
from repro.experiments.pipelines import (
    PipelineSpec,
    build_pipeline,
    capture_point_payloads,
)
from repro.experiments.runner import CapturePoint
from repro.experiments.supervision import RetryPolicy

SPEC = PipelineSpec(jobs=("grep",), sizes_gb=(0.0625, 0.125),
                    campaign={"nodes": 4, "hosts_per_rack": 2})


def _metric(metrics_path, name):
    entries = json.loads(metrics_path.read_text(encoding="utf-8"))
    return [entry["value"] for entry in entries
            if entry["name"] == name and not entry.get("labels")]


def _capture_only():
    dag = PipelineDAG("capture-only")
    dag.add(build_pipeline(SPEC).node("capture"))
    return dag


def test_deadline_run_capture_keeps_its_telemetry(tmp_path):
    # A deadline puts a registry stage on the executor's spawn pool; the
    # worker's registry must come back into the node's telemetry.
    root = tmp_path / "pl"
    result = DAGRunner(_capture_only(), root,
                       retry_policy=RetryPolicy(max_attempts=1,
                                                deadline_s=120.0),
                       node_telemetry=True).run()
    assert result.states() == {"capture": DONE}
    metrics = root / result.outcomes["capture"].dir / "telemetry" / \
        "metrics.json"
    assert _metric(metrics, "campaign.simulated") == \
        [len(capture_point_payloads(SPEC))]


def test_worker_count_does_not_rekey_the_capture_sweep(tmp_path):
    root = tmp_path / "pl"
    first = DAGRunner(build_pipeline(SPEC.with_overrides(workers=1)),
                      root).run()
    assert first.states()["capture"] == DONE

    wider = DAGRunner(build_pipeline(SPEC.with_overrides(workers=2)), root)
    actions = {entry["node"]: entry["action"] for entry in wider.plan()}
    assert actions["capture"] == CACHED
    assert set(actions.values()) == {CACHED}


def test_downstream_nodes_count_their_store_reads(tmp_path):
    # Every node that reads the shared capture store counts the reads
    # on its own registry, so its telemetry shows them.
    root = tmp_path / "pl"
    result = DAGRunner(build_pipeline(SPEC), root, node_telemetry=True).run()
    readers = ("classify", "fit", "replay", "validate")
    for name in readers:
        assert result.states()[name] == DONE
        metrics = root / result.outcomes[name].dir / "telemetry" / \
            "metrics.json"
        for counter in ("store.hits", "store.bytes_read"):
            (value,) = _metric(metrics, counter)
            assert value > 0, (name, counter)


def _flaky_second_point(monkeypatch):
    """The sweep's second point raises a transient error the first time
    it is simulated.  Returns the keys simulated, in order."""
    simulated = []
    payload = capture_point_payloads(SPEC)[1]
    victim = CapturePoint.from_campaign(
        payload["job"], payload["input_gb"], payload["seed"],
        CampaignConfig(**payload["campaign"])).key()
    simulate = CapturePoint.simulate

    def flaky(point, telemetry=None):
        key = point.key()
        simulated.append(key)
        if key == victim and simulated.count(key) == 1:
            raise OSError("transient worker glitch")
        return simulate(point, telemetry)

    monkeypatch.setattr(CapturePoint, "simulate", flaky)
    return simulated, victim


def test_capture_node_retries_are_the_pipelines_retries(tmp_path,
                                                       monkeypatch):
    # The capture node's own runner gets one attempt per point, so with
    # a one-attempt pipeline a transient point failure quarantines it.
    _flaky_second_point(monkeypatch)
    runner = DAGRunner(_capture_only(), tmp_path / "pl",
                       retry_policy=RetryPolicy(max_attempts=1))
    with pytest.raises(PipelineFailed) as err:
        runner.run()
    outcome = err.value.result.outcomes["capture"]
    assert outcome.state == QUARANTINED
    assert "transient" in outcome.reason


def test_capture_node_retry_simulates_only_the_missing_point(tmp_path,
                                                            monkeypatch):
    simulated, victim = _flaky_second_point(monkeypatch)
    result = DAGRunner(_capture_only(), tmp_path / "pl",
                       retry_policy=RetryPolicy(max_attempts=2)).run()
    outcome = result.outcomes["capture"]
    assert outcome.state == DONE
    assert outcome.attempts == 2
    # The retry reuses the node-local store: every point the first
    # attempt finished is read back, and only the victim runs again.
    points = len(capture_point_payloads(SPEC))
    assert len(simulated) == points + 1
    assert simulated[points:] == [victim]
