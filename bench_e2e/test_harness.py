"""Self-test of the benchmark harness at tiny sizes.

Run from the repository root::

    python3 -m pytest bench_e2e/test_harness.py -q

It is not part of the tier-1 suite (``testpaths`` is ``tests``).
"""

from __future__ import annotations

import functools
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]

#: Every layer of the per-layer table; each must appear in a traced run.
TABLE_LAYERS = ("simkit", "net", "hdfs", "yarn", "mapreduce", "capture",
                "runner", "store", "dag", "modeling", "generation",
                "analysis", "obs", "trace")


@functools.lru_cache(maxsize=None)
def run_bench(workload: str, trace: int) -> tuple:
    """Run the harness CLI at tiny size; (result object, stdout lines).

    Cached: the tests below only read the result.
    """
    child = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.2", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170,
        check=True)
    lines = child.stdout.splitlines()
    return json.loads(lines[-1]), lines[:-1]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit(workload, trace):
    section = "end_to_end" if trace == 0 else "per_layer"
    result, lines = run_bench(workload, trace)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    for metric in SPEC[section]:
        name, unit = metric["name"], metric["unit"]
        assert result["metrics"][name]["unit"] == unit
        assert any(line.strip().startswith(f"{name} = ")
                   and line.rstrip().endswith(f" {unit}")
                   for line in lines), f"{name} not printed with {unit}"
    assert set(result["metrics"]) == {m["name"] for m in SPEC[section]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer(workload):
    result, _ = run_bench(workload, 1)
    reported = {name.split(".")[0] for name in result["metrics"]}
    assert set(TABLE_LAYERS) <= reported
    self_rows = [value["value"] for name, value in result["metrics"].items()
                 if name.endswith(".self_s")]
    traced_wall = result["metrics"]["trace.wall_s"]["value"]
    assert sum(self_rows) <= traced_wall
    assert sum(self_rows) >= 0.9 * traced_wall


@pytest.fixture
def bench_path():
    """Make the program and the benchmark's modules importable."""
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    yield
    del sys.path[:2]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_digest_is_a_failure(workload, bench_path):
    import run

    result = run.measure(workload, 7, 0.0, False, scale="tiny",
                         expected_digest="0" * 64, log=lambda line: None)
    assert result["failed"] > 0
    assert not result["correct"]


def test_lost_reducer_fails_the_shuffle_check(bench_path):
    import dataclasses

    from repro.cluster.ports import ephemeral_port
    from workloads import CaptureFabric, shuffle_relation

    fabric = CaptureFabric(7, "tiny", BENCH_DIR)
    fabric.setup()
    _, (result, trace) = fabric.run()
    assert shuffle_relation(result, trace)[2] == []
    app = result.rounds[0].app_id
    kept = [flow for flow in trace.flows
            if flow.component != "shuffle"
            or flow.dst_port != ephemeral_port(f"shuffle-{app}-0-{flow.src}")]
    assert len(kept) < len(trace.flows)
    lost = dataclasses.replace(trace, flows=kept)
    assert shuffle_relation(result, lost)[2] != []
