"""Crash-resume acceptance: SIGKILL mid-pipeline, resume, byte-identity.

These tests drive the real CLI in subprocesses because the crash hook
(`KEDDAH_PIPELINE_CRASH_IN`) SIGKILLs the hosting process — exactly
the failure the per-node ``outputs.json`` checkpoints must survive.
"""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

TINY = ["--job", "grep", "--sizes-gb", "0.0625,0.125"]
NODES = {"capture", "classify", "fit", "replay", "validate", "report"}


def _keddah(args, crash_in=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    env.pop("KEDDAH_PIPELINE_CRASH_IN", None)
    if crash_in:
        env["KEDDAH_PIPELINE_CRASH_IN"] = crash_in
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        env=env, cwd=str(REPO), capture_output=True, text=True,
        timeout=180)


def _node_manifests(root):
    manifests = {}
    for path in sorted(Path(root).glob("nodes/*/outputs.json")):
        manifests[path.parent.name] = json.loads(
            path.read_text(encoding="utf-8"))
    return manifests


def _table_rows(stdout):
    """node -> its row's columns, from a rendered pipeline table."""
    rows = {}
    for line in stdout.splitlines():
        parts = line.split()
        if parts and parts[0] in NODES:
            rows[parts[0]] = parts
    return rows


def test_sigkill_mid_fit_resume_is_byte_identical_with_zero_rerun(tmp_path):
    baseline = tmp_path / "baseline"
    crashed = tmp_path / "crashed"

    clean = _keddah(["pipeline", "run", "--dir", str(baseline), *TINY])
    assert clean.returncode == 0, clean.stderr

    killed = _keddah(["pipeline", "run", "--dir", str(crashed), *TINY],
                     crash_in="fit")
    assert killed.returncode == -signal.SIGKILL
    committed = set(_node_manifests(crashed))
    assert committed and not any(name.startswith("fit@")
                                 for name in committed)

    resumed = _keddah(["pipeline", "resume", "--dir", str(crashed)])
    assert resumed.returncode == 0, resumed.stderr
    assert "already complete" in resumed.stdout

    # Zero re-execution: the resume table's cached rows are exactly the
    # nodes committed before the kill; every other node, fit included,
    # ran once more.
    rows = _table_rows(resumed.stdout)
    assert set(rows) == NODES
    cached = {Path(row[4]).name for row in rows.values()
              if row[2] == "cached"}
    assert cached == committed
    assert rows["fit"][2] == "done"
    assert all(row[2] == "done" for row in rows.values()
               if Path(row[4]).name not in committed)

    # Byte-identity: every node dir (same signatures) and every output
    # digest matches the uninterrupted run, including the final report.
    base_manifests = _node_manifests(baseline)
    crash_manifests = _node_manifests(crashed)
    assert set(base_manifests) == set(crash_manifests)
    for name, manifest in base_manifests.items():
        assert manifest["outputs"] == crash_manifests[name]["outputs"], name

    report_dir = next(baseline.glob("nodes/report@*"))
    twin = crashed / "nodes" / report_dir.name
    base_report = (report_dir / "work" / "report.md").read_bytes()
    assert (twin / "work" / "report.md").read_bytes() == base_report


def test_crash_before_any_completion_then_full_resume(tmp_path):
    root = tmp_path / "pl"
    killed = _keddah(["pipeline", "run", "--dir", str(root), *TINY],
                     crash_in="capture")
    assert killed.returncode == -signal.SIGKILL
    # capture started (node.json) but never committed (outputs.json).
    plan = _keddah(["pipeline", "plan", "--dir", str(root)])
    assert plan.returncode == 0, plan.stderr
    assert _table_rows(plan.stdout)["capture"][2] == "interrupted"

    resumed = _keddah(["pipeline", "resume", "--dir", str(root)])
    assert resumed.returncode == 0, resumed.stderr
    manifests = _node_manifests(root)
    assert {name.split("@")[0] for name in manifests} == NODES


def test_resume_without_a_spec_is_a_clean_error(tmp_path):
    missing = _keddah(["pipeline", "resume", "--dir",
                       str(tmp_path / "nowhere")])
    assert missing.returncode == 2
    assert "pipeline.json" in missing.stdout + missing.stderr
