#!/usr/bin/env python
"""Pipeline crash-resume gate: kill, resume and cascade, end to end.

Drives the real ``keddah pipeline`` CLI in subprocesses:

1. Run a tiny pipeline uninterrupted (the baseline).
2. Run a twin with ``KEDDAH_PIPELINE_CRASH_IN=fit`` — the process is
   SIGKILLed right after the fit node writes its ``node.json``.
3. ``keddah pipeline resume`` the twin; it must re-run *only* the
   incomplete nodes — the resume table's ``cached`` rows are exactly
   the nodes holding ``outputs.json`` after the kill, every other row
   is ``done`` — and every artifact, including the final report, must
   be byte-identical to the baseline.
4. Edit one mid-DAG node's config (the fit training set) and verify
   the plan invalidates exactly that node and its descendants.

Exits nonzero with a readable message on the first violated invariant.
Run via ``scripts/check.sh`` or directly:  python scripts/pipeline_gate.py
"""

import json
import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
TINY = ["--job", "grep", "--sizes-gb", "0.0625,0.125"]
NODES = {"capture", "classify", "fit", "replay", "validate", "report"}


def keddah(args, crash_in=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = (str(REPO / "src")
                         + os.pathsep + env.get("PYTHONPATH", ""))
    env.pop("KEDDAH_PIPELINE_CRASH_IN", None)
    if crash_in:
        env["KEDDAH_PIPELINE_CRASH_IN"] = crash_in
    return subprocess.run([sys.executable, "-m", "repro.cli", *args],
                          env=env, cwd=str(REPO), capture_output=True,
                          text=True, timeout=300)


def fail(message):
    print(f"pipeline gate FAILED: {message}", file=sys.stderr)
    sys.exit(1)


def manifests(root):
    found = {}
    for path in sorted(Path(root).glob("nodes/*/outputs.json")):
        found[path.parent.name] = json.loads(
            path.read_text(encoding="utf-8"))["outputs"]
    return found


def table_rows(stdout):
    """node -> its row's columns, from a rendered pipeline table."""
    rows = {}
    for line in stdout.splitlines():
        parts = line.split()
        if parts and parts[0] in NODES:
            rows[parts[0]] = parts
    return rows


def main():
    with tempfile.TemporaryDirectory(prefix="keddah-pipeline-gate-") as tmp:
        baseline = Path(tmp) / "baseline"
        crashed = Path(tmp) / "crashed"

        print("[1/4] baseline pipeline run")
        clean = keddah(["pipeline", "run", "--dir", str(baseline), *TINY])
        if clean.returncode != 0:
            fail(f"baseline run exited {clean.returncode}:\n{clean.stderr}")

        print("[2/4] SIGKILL mid-fit")
        killed = keddah(["pipeline", "run", "--dir", str(crashed), *TINY],
                        crash_in="fit")
        if killed.returncode != -signal.SIGKILL:
            fail(f"crash hook did not SIGKILL (rc {killed.returncode})")
        committed = set(manifests(crashed))

        print("[3/4] resume: zero re-execution + byte-identical artifacts")
        resumed = keddah(["pipeline", "resume", "--dir", str(crashed)])
        if resumed.returncode != 0:
            fail(f"resume exited {resumed.returncode}:\n{resumed.stderr}")
        rows = table_rows(resumed.stdout)
        if set(rows) != NODES:
            fail(f"resume table rows {sorted(rows)} != {sorted(NODES)}")
        states = {Path(row[4]).name: row[2] for row in rows.values()}
        cached = {name for name, state in states.items()
                  if state == "cached"}
        if cached != committed:
            fail(f"cached on resume {sorted(cached)} != committed before "
                 f"the kill {sorted(committed)}")
        if rows["fit"][2] != "done":
            fail(f"killed fit node is {rows['fit'][2]} on resume, not done")
        rerun = sorted(name for name, state in states.items()
                       if name not in committed and state != "done")
        if rerun:
            fail(f"incomplete nodes not re-run on resume: {rerun}")
        base, twin = manifests(baseline), manifests(crashed)
        if set(base) != set(twin):
            fail(f"node dirs diverged: {sorted(set(base) ^ set(twin))}")
        for name in base:
            if base[name] != twin[name]:
                fail(f"output digests diverged in {name}")
        report = next(baseline.glob("nodes/report@*/work/report.md"))
        twin_report = crashed / report.relative_to(baseline)
        if report.read_bytes() != twin_report.read_bytes():
            fail("final report.md is not byte-identical after resume")

        print("[4/4] config-edit cascade")
        plan = keddah(["pipeline", "plan", "--dir", str(baseline), *TINY,
                       "--fit-sizes-gb", "0.0625,0.125"])
        if plan.returncode != 0:
            fail(f"plan exited {plan.returncode}:\n{plan.stderr}")
        actions = {node: row[2]
                   for node, row in table_rows(plan.stdout).items()}
        expected = {"capture": "cached", "classify": "cached",
                    "replay": "cached", "fit": "run",
                    "validate": "stale-upstream",
                    "report": "stale-upstream"}
        if actions != expected:
            fail(f"config-edit plan wrong: {actions} != {expected}")

    print("pipeline gate: crash-resume byte-identity and cascade hold")


if __name__ == "__main__":
    main()
