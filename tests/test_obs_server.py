"""The live observability daemon: endpoints, live updates, CLI wiring."""

import json
import re
import threading
import urllib.request

import pytest

from repro.api import run_capture
from repro.cli import main
from repro.cluster.config import ClusterSpec, HadoopConfig
from repro.cluster.units import MB
from repro.experiments.runner import CampaignRunner, CapturePoint
from repro.obs import EventBroker, Telemetry
from repro.obs.export import write_telemetry
from repro.obs.server import (
    ENDPOINTS,
    DirSource,
    ObservabilityServer,
    serve_directory,
    serve_telemetry,
)

_CONFIG = HadoopConfig(block_size=16 * MB, num_reducers=2, replication=2)
_SPEC = ClusterSpec(num_nodes=4, hosts_per_rack=2)


def _get(url, timeout=5):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.status, response.headers, response.read()


def _get_json(url):
    status, _, body = _get(url)
    assert status == 200
    return json.loads(body)


def _observed_telemetry():
    telemetry = Telemetry.enabled_in_memory(probe_interval=0.5)
    run_capture("terasort", input_gb=0.125, nodes=4, seed=3,
                config=_CONFIG, hosts_per_rack=2, telemetry=telemetry)
    return telemetry


# -- endpoints over a live telemetry -------------------------------------------------


def test_live_endpoints_round_trip():
    telemetry = _observed_telemetry()
    with serve_telemetry(telemetry) as server:
        health = _get_json(server.url + "/healthz")
        assert health["status"] == "ok"
        assert health["source"]["kind"] == "live"
        assert sorted(health["endpoints"]) == sorted(ENDPOINTS)

        status, headers, body = _get(server.url + "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        text = body.decode()
        assert "# HELP sim_events_fired" in text
        assert "# TYPE sim_events_fired counter" in text
        assert re.search(r"^sim_events_fired \d", text, re.M)

        snapshot = _get_json(server.url + "/snapshot")
        assert any(entry["name"] == "sim.events_fired"
                   for entry in snapshot)

        probes = _get_json(server.url + "/probes")
        assert "net.active_flows" in probes

        spans = _get_json(server.url + "/spans")
        assert any(span["kind"] == "job" for span in spans)
        limited = _get_json(server.url + "/spans?limit=3")
        assert len(limited) == 3
        assert limited == spans[-3:]

        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server.url + "/nope")
        assert excinfo.value.code == 404
    # Stopped: the listening socket is closed and the accept thread has
    # exited.  (Probing the port instead would pass or fail depending on
    # whether the OS has handed that ephemeral port to someone else.)
    assert server._httpd.socket.fileno() == -1
    assert not any(thread.is_alive() for thread in server._threads)


def test_events_sse_stream_with_replay_and_max():
    broker = EventBroker()
    broker.publish("point", index=0)
    telemetry = Telemetry.disabled()
    with serve_telemetry(telemetry, broker=broker) as server:
        broker.publish("point", index=1)
        status, headers, body = _get(
            server.url + "/events?replay=2&max=2")
        assert status == 200
        assert headers["Content-Type"] == "text/event-stream"
        frames = [frame for frame in body.decode().split("\n\n")
                  if frame.startswith("event:")]
        payloads = [json.loads(frame.split("data: ", 1)[1])
                    for frame in frames]
        assert [p["index"] for p in payloads] == [0, 1]
        assert all(p["kind"] == "point" for p in payloads)


# -- the acceptance criterion: /metrics updates DURING a campaign --------------------


class ReadingBroker(EventBroker):
    """An event broker that reads ``/metrics`` as each point completes.

    ``publish`` runs on the campaign's own thread, so the campaign waits
    while the server thread answers: each reading is taken at the
    instant of its event, with no sleep-polling and no race.
    """

    def __init__(self):
        super().__init__()
        self.url = None
        self.readings = []  # (event's completed count, /metrics value)

    def publish(self, kind, **payload):
        event = super().publish(kind, **payload)
        if kind == "point" and payload.get("status") == "completed":
            _, _, body = _get(self.url + "/metrics")
            value = next(float(line.split()[-1])
                         for line in body.decode().splitlines()
                         if line.startswith("campaign_points_completed "))
            self.readings.append((payload["completed"], value))
        return event


def test_metrics_update_live_during_campaign():
    telemetry = Telemetry.disabled()
    broker = ReadingBroker()
    runner = CampaignRunner(telemetry=telemetry, events=broker)
    points = [CapturePoint.from_configs("terasort", 0.125, seed, _SPEC,
                                        _CONFIG)
              for seed in range(5)]
    with serve_telemetry(telemetry, broker=broker) as server:
        broker.url = server.url
        runner.run(points)
    # /metrics advanced during the run, in step with every point event.
    assert broker.readings == [(count, float(count)) for count in range(1, 6)]
    # And the /events stream carried per-point progress.
    kinds = [event["kind"] for event in broker.history]
    assert kinds.count("point") == 5
    assert kinds[0] == "campaign" and kinds[-1] == "campaign"


def test_capture_bytes_identical_with_server_attached(tmp_path):
    def capture(path, serve):
        telemetry = Telemetry.enabled_in_memory(probe_interval=0.5)
        server = None
        stop = threading.Event()
        poller = None
        if serve:
            server = serve_telemetry(telemetry)

            def hammer():
                while not stop.is_set():
                    _get(server.url + "/metrics")
                    _get(server.url + "/snapshot")

            poller = threading.Thread(target=hammer, daemon=True)
            poller.start()
        point = CapturePoint.from_configs("wordcount", 0.125, 11, _SPEC,
                                          _CONFIG)
        try:
            _, trace = point.simulate(telemetry=telemetry)
        finally:
            stop.set()
            if poller is not None:
                poller.join(timeout=5)
            if server is not None:
                server.stop()
        trace.to_jsonl(str(path))
        return path.read_bytes()

    plain = capture(tmp_path / "plain.jsonl", serve=False)
    served = capture(tmp_path / "served.jsonl", serve=True)
    assert plain == served


# -- directory source ----------------------------------------------------------------


def test_dir_source_serves_and_reloads(tmp_path):
    telemetry = _observed_telemetry()
    write_telemetry(telemetry, tmp_path)
    with serve_directory(tmp_path) as server:
        health = _get_json(server.url + "/healthz")
        assert health["source"]["kind"] == "dir"
        _, _, body = _get(server.url + "/metrics")
        assert b"sim_events_fired" in body
        probes = _get_json(server.url + "/probes")
        assert "net.active_flows" in probes
        reloads = server.source.reloads
        # Rewrite the artefacts: the next request picks the change up.
        telemetry.registry.counter("extra.counter").inc(7)
        write_telemetry(telemetry, tmp_path)
        _, _, body = _get(server.url + "/metrics")
        assert b"extra_counter 7.0" in body
        assert server.source.reloads > reloads


def test_dir_source_degrades_on_partial_writes(tmp_path):
    telemetry = _observed_telemetry()
    write_telemetry(telemetry, tmp_path)
    # A torn probes.json and a truncated spans.jsonl, mid-stream.
    (tmp_path / "probes.json").write_text('{"net.active_flows": {"na')
    spans_path = tmp_path / "spans.jsonl"
    spans_path.write_bytes(spans_path.read_bytes()[:-20])
    with pytest.warns(UserWarning, match="probes.json"):
        source = DirSource(tmp_path)
    assert source.probes().series == {}
    assert source.metrics_snapshot()  # metrics.json survived
    with ObservabilityServer(source) as server:
        _, _, body = _get(server.url + "/metrics")
        assert b"sim_events_fired" in body
        assert _get_json(server.url + "/probes") == {}
        spans = _get_json(server.url + "/spans")
        assert spans  # parseable prefix survived the truncated tail


def _fake_pipeline_dir(tmp_path):
    """A pipeline root: run-level telemetry plus two node telemetry dirs."""
    (tmp_path / "pipeline.json").write_text("{}", encoding="utf-8")
    run_level = Telemetry.enabled_in_memory()
    run_level.registry.counter("pipeline.runs").inc()
    write_telemetry(run_level, tmp_path / "telemetry")
    for node, signature in (("capture", "aa" * 6), ("fit", "bb" * 6)):
        telemetry = Telemetry.enabled_in_memory()
        telemetry.registry.counter("stage.work").inc(3)
        telemetry.probes.sample("stage.load", 1.0, 0.5)
        write_telemetry(telemetry,
                        tmp_path / "nodes" / f"{node}@{signature}"
                        / "telemetry")
    return tmp_path


def test_dir_source_aggregates_pipeline_layout_under_node_labels(tmp_path):
    source = DirSource(_fake_pipeline_dir(tmp_path))
    assert source.kind == "pipeline-dir"
    snapshot = source.metrics_snapshot()
    by_label = {entry.get("labels", {}).get("node")
                for entry in snapshot if entry["name"] == "stage.work"}
    assert by_label == {"capture", "fit"}
    unlabelled = [entry for entry in snapshot
                  if entry["name"] == "pipeline.runs"]
    assert unlabelled and "node" not in unlabelled[0].get("labels", {})

    text = source.prometheus()
    assert 'stage_work{node="capture"} 3.0' in text
    assert 'stage_work{node="fit"} 3.0' in text

    assert set(source.probes().series) == {"capture/stage.load",
                                           "fit/stage.load"}


def test_dir_source_pipeline_reloads_on_node_change(tmp_path):
    source = DirSource(_fake_pipeline_dir(tmp_path))
    reloads = source.reloads
    telemetry = Telemetry.enabled_in_memory()
    telemetry.registry.counter("stage.work").inc(9)
    write_telemetry(telemetry,
                    tmp_path / "nodes" / ("replay@" + "cc" * 6)
                    / "telemetry")
    source.refresh()
    assert source.reloads > reloads
    assert 'stage_work{node="replay"} 9.0' in source.prometheus()


def test_load_telemetry_dir_strict_still_raises(tmp_path):
    from repro.obs.export import load_telemetry_dir

    (tmp_path / "metrics.json").write_text("[not json")
    with pytest.warns(UserWarning, match="metrics.json"):
        metrics, _, _ = load_telemetry_dir(tmp_path)
    assert metrics == []
    with pytest.raises(ValueError):
        load_telemetry_dir(tmp_path, strict=True)


# -- CLI: keddah serve / keddah top / campaign --serve-port --------------------------


def test_cli_top_renders_telemetry_dir(tmp_path, capsys):
    telemetry = _observed_telemetry()
    write_telemetry(telemetry, tmp_path)
    assert main(["top", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "cluster metrics" in out
    assert "sim.events_fired" in out
    assert "net.active_flows" in out


def test_cli_top_renders_a_running_daemon(capsys):
    telemetry = _observed_telemetry()
    with serve_telemetry(telemetry) as server:
        assert main(["top", server.url]) == 0
    out = capsys.readouterr().out
    assert "live source" in out
    assert "sim.events_fired" in out


def test_cli_top_rejects_bogus_source(capsys):
    assert main(["top", "/no/such/place"]) == 2
    assert main(["top", "http://127.0.0.1:9"]) == 2


def test_cli_serve_for_seconds_and_missing_dir(tmp_path, capsys):
    telemetry = _observed_telemetry()
    write_telemetry(telemetry, tmp_path)
    assert main(["serve", "--telemetry", str(tmp_path),
                 "--for-seconds", "0.05"]) == 0
    out = capsys.readouterr().out
    assert f"serving telemetry dir {tmp_path}" in out
    assert "/metrics" in out
    assert main(["serve", "--telemetry", str(tmp_path / "missing")]) == 2


def test_cli_campaign_serve_port_serves_live_metrics(monkeypatch, capsys):
    import repro.obs
    import repro.obs.server

    brokers = []
    real_serve = repro.obs.server.serve_telemetry

    def serve(*args, **kwargs):
        server = real_serve(*args, **kwargs)
        kwargs["broker"].url = server.url
        brokers.append(kwargs["broker"])
        return server

    monkeypatch.setattr(repro.obs, "EventBroker", ReadingBroker)
    monkeypatch.setattr(repro.obs.server, "serve_telemetry", serve)
    rc = main(["campaign", "--job", "terasort", "--sizes-gb",
               "0.125,0.1875,0.25,0.3125,0.375,0.5", "--nodes", "4",
               "--workers", "1", "--serve-port", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "live observability at http://127.0.0.1:" in out
    assert "serve daemon:" in out
    (broker,) = brokers
    assert broker.readings == [(count, float(count)) for count in range(1, 7)]
