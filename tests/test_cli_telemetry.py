"""CLI tests for the telemetry surfaces: --telemetry, trace, report, top."""

import json
import shutil

import pytest

from repro.cli import main
from repro.obs import MetricsRegistry, Telemetry
from repro.obs.export import load_telemetry_dir, prometheus_text, write_telemetry


@pytest.fixture(scope="module")
def telemetry_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_tel")
    trace_path = root / "t.jsonl"
    tel_dir = root / "tel"
    code = main(["capture", "--job", "terasort", "--input-gb", "0.25",
                 "--nodes", "4", "--seed", "3", "-o", str(trace_path),
                 "--telemetry", str(tel_dir), "--probe-interval", "0.5"])
    assert code == 0
    return trace_path, tel_dir


def test_capture_writes_telemetry_artefacts(telemetry_run):
    _, tel_dir = telemetry_run
    names = sorted(path.name for path in tel_dir.iterdir())
    assert names == ["metrics.json", "metrics.prom", "probes.json",
                     "spans.jsonl"]
    metrics = json.loads((tel_dir / "metrics.json").read_text())
    assert any(entry["name"] == "net.flows_completed" for entry in metrics)
    prom = (tel_dir / "metrics.prom").read_text()
    assert "# TYPE sim_events_fired counter" in prom
    probes = json.loads((tel_dir / "probes.json").read_text())
    assert "net.active_flows" in probes


def test_trace_renders_span_tree(telemetry_run, capsys):
    _, tel_dir = telemetry_run
    assert main(["trace", str(tel_dir)]) == 0
    out = capsys.readouterr().out
    assert "span summary" in out or "spans in" in out
    assert "job:" in out
    assert "stage:" in out


def test_trace_kind_filter_and_depth(telemetry_run, capsys):
    _, tel_dir = telemetry_run
    assert main(["trace", str(tel_dir / "spans.jsonl"),
                 "--kinds", "job,stage", "--max-depth", "1"]) == 0
    out = capsys.readouterr().out
    assert "job:" in out
    assert "stage:" in out
    assert "fetch:" not in out
    assert "task:" not in out


def test_trace_summary_only(telemetry_run, capsys):
    _, tel_dir = telemetry_run
    assert main(["trace", str(tel_dir), "--summary-only"]) == 0
    out = capsys.readouterr().out
    assert "hdfs_write" in out
    assert "job:" not in out  # no tree lines


def test_trace_missing_stream_is_an_error(tmp_path, capsys):
    assert main(["trace", str(tmp_path / "nope.jsonl")]) == 2
    assert "no span stream" in capsys.readouterr().out


def test_report_reads_telemetry_dir(telemetry_run, capsys):
    trace_path, tel_dir = telemetry_run
    assert main(["report", str(trace_path),
                 "--telemetry", str(tel_dir)]) == 0
    out = capsys.readouterr().out
    assert "telemetry metrics" in out
    assert "probe series" in out
    assert "span summary" in out
    assert "net.flows_completed" in out


def test_cli_top_renders_telemetry_dir(telemetry_run, capsys):
    _, tel_dir = telemetry_run
    assert main(["top", str(tel_dir)]) == 0
    out = capsys.readouterr().out
    assert "cluster metrics" in out
    assert "sim.events_fired" in out
    assert "net.active_flows" in out


def test_cli_top_rejects_bogus_source(capsys):
    assert main(["top", "/no/such/place"]) == 2
    assert main(["top", "http://127.0.0.1:9"]) == 2


# -- the telemetry-dir loader --------------------------------------------------------


def test_load_telemetry_dir_raises_naming_damaged_file(telemetry_run,
                                                        tmp_path, capsys):
    trace_path, tel_dir = telemetry_run
    torn = shutil.copytree(tel_dir, tmp_path / "torn")
    (torn / "probes.json").write_text('{"net.active_flows": {"na')
    with pytest.raises(ValueError, match="probes.json"):
        load_telemetry_dir(torn)
    assert main(["top", str(torn)]) == 2
    assert "probes.json" in capsys.readouterr().out

    truncated = shutil.copytree(tel_dir, tmp_path / "truncated")
    spans_path = truncated / "spans.jsonl"
    spans_path.write_bytes(spans_path.read_bytes()[:-20])
    with pytest.raises(ValueError, match="spans.jsonl"):
        load_telemetry_dir(truncated)
    capsys.readouterr()
    assert main(["report", str(trace_path),
                 "--telemetry", str(truncated)]) == 2
    assert "spans.jsonl" in capsys.readouterr().out


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


def test_load_telemetry_dir_aggregates_pipeline_layout_under_node_labels(
        tmp_path):
    metrics, probes, _ = load_telemetry_dir(_fake_pipeline_dir(tmp_path))
    by_label = {entry.get("labels", {}).get("node")
                for entry in metrics if entry["name"] == "stage.work"}
    assert by_label == {"capture", "fit"}
    unlabelled = [entry for entry in metrics
                  if entry["name"] == "pipeline.runs"]
    assert unlabelled and "node" not in unlabelled[0].get("labels", {})

    registry = MetricsRegistry()
    registry.merge(metrics)
    text = prometheus_text(registry)
    assert 'stage_work{node="capture"} 3.0' in text
    assert 'stage_work{node="fit"} 3.0' in text

    assert set(probes.series) == {"capture/stage.load", "fit/stage.load"}


def test_campaign_prints_cache_stats(tmp_path, capsys):
    store = tmp_path / "store"
    argv = ["campaign", "--job", "terasort", "--sizes-gb", "0.125",
            "--nodes", "4", "--store", str(store)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "cache stats:" in out
    assert "store 0 hit(s)" in out

    # Second run resolves from the store and says so.
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "cache stats:" in out
    assert "store 1 hit(s)" in out


def test_campaign_telemetry_artefacts(tmp_path, capsys):
    tel_dir = tmp_path / "ctel"
    assert main(["campaign", "--job", "terasort", "--sizes-gb", "0.125",
                 "--nodes", "4", "--store", str(tmp_path / "s"),
                 "--telemetry", str(tel_dir)]) == 0
    out = capsys.readouterr().out
    assert "telemetry" in out
    metrics = json.loads((tel_dir / "metrics.json").read_text())
    names = {entry["name"] for entry in metrics}
    assert "campaign.simulated" in names
    assert "net.flows_completed" in names
