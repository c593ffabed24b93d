"""Tests for the markdown report generator."""

import pytest

from repro.experiments.report import (
    generate_report,
    plan_capture_section,
    write_report,
)


def test_generate_report_single_experiment():
    text = generate_report(["e07"])
    assert text.startswith("# Keddah evaluation report")
    assert "## E07 — HDFS write traffic vs replication factor" in text
    assert "E7: HDFS write traffic" in text
    assert text.count("```") % 2 == 0  # balanced code fences


def test_generate_report_rejects_unknown_ids():
    with pytest.raises(ValueError):
        generate_report(["e99"])


def test_write_report_to_disk(tmp_path):
    path = write_report(tmp_path / "report.md", ["a3"],
                        title="Smoke report")
    text = path.read_text()
    assert text.startswith("# Smoke report")
    assert "A3" in text


def test_plan_capture_section_records_cli_command_and_output():
    args = ("--plan", "tpcx-hs", "--scale", "0.25", "--nodes", "4",
            "--reducers", "2", "--seed", "42")
    lines = plan_capture_section("TPCx-HS smoke", args, "hs.jsonl")
    assert lines[:4] == [
        "## Workload plans — TPCx-HS smoke", "", "```",
        "$ keddah capture " + " ".join(args) + " -o hs.jsonl"]
    output = lines[4]
    assert "== Plan tpcx-hs — per-stage breakdown ==" in output
    assert output.splitlines()[-1].endswith("simulated) -> hs.jsonl")
    assert lines[5:] == ["```", ""]
