"""End-to-end tests for the keddah CLI."""

import json

import pytest

from repro.capture.records import JobTrace
from repro.cli import build_parser, main
from repro.modeling.model import JobTrafficModel


@pytest.fixture(scope="module")
def captured(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "trace.jsonl"
    code = main(["capture", "--job", "terasort", "--input-gb", "0.25",
                 "--nodes", "8", "--seed", "3", "-o", str(path)])
    assert code == 0
    return path


def test_capture_writes_loadable_trace(captured):
    trace = JobTrace.from_jsonl(captured)
    assert trace.meta.job_kind == "terasort"
    assert trace.flow_count() > 0


def test_fit_and_generate_roundtrip(captured, tmp_path):
    model_path = tmp_path / "model.json"
    assert main(["fit", str(captured), "-o", str(model_path)]) == 0
    model = JobTrafficModel.from_json(model_path)
    assert model.kind == "terasort"

    synthetic_path = tmp_path / "synthetic.jsonl"
    assert main(["generate", "--model", str(model_path),
                 "--input-gb", "0.5", "--seed", "1",
                 "-o", str(synthetic_path)]) == 0
    synthetic = JobTrace.from_jsonl(synthetic_path)
    assert synthetic.meta.extra["synthetic"] is True
    assert synthetic.flow_count() > 0


def test_replay_command(captured, capsys):
    assert main(["replay", str(captured)]) == 0
    out = capsys.readouterr().out
    assert "makespan" in out


def test_report_command(captured, capsys):
    assert main(["report", str(captured)]) == 0
    out = capsys.readouterr().out
    assert "shuffle" in out
    assert "completion time" in out


def test_export_csv_and_ns3(captured, tmp_path, capsys):
    csv_path = tmp_path / "schedule.csv"
    assert main(["export", str(captured), "--format", "csv",
                 "-o", str(csv_path)]) == 0
    assert csv_path.read_text().startswith("start,src,dst")

    cc_path = tmp_path / "replay.cc"
    assert main(["export", str(captured), "--format", "ns3",
                 "-o", str(cc_path)]) == 0
    assert "BulkSendHelper" in cc_path.read_text()


def test_parser_rejects_unknown_job():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["capture", "--job", "mystery", "-o", "x"])


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_capture_with_scheduler_flag(tmp_path):
    path = tmp_path / "fair.jsonl"
    assert main(["capture", "--job", "grep", "--input-gb", "0.125",
                 "--scheduler", "fair", "-o", str(path)]) == 0
    trace = JobTrace.from_jsonl(path)
    assert trace.meta.hadoop["scheduler"] == "fair"


@pytest.mark.parametrize("workload", [
    ["--job", "terasort", "--input-gb", "0.25", "--nodes", "8"],
    ["--plan", "pig-aggregation", "--plan-param", "input_gb=0.25",
     "--nodes", "4"],
], ids=["job", "plan"])
def test_capture_writes_the_same_bytes_with_and_without_store(
        tmp_path, capsys, workload):
    bare, stored = tmp_path / "bare.jsonl", tmp_path / "stored.jsonl"
    args = ["capture", *workload, "--seed", "3"]
    assert main([*args, "-o", str(bare)]) == 0
    assert main([*args, "--store", str(tmp_path / "store"),
                 "-o", str(stored)]) == 0
    assert ", simulated)" in capsys.readouterr().out
    assert bare.read_bytes() == stored.read_bytes()
