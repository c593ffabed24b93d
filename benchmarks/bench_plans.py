"""Workload-plan benchmark: a chained plan vs its stages run in isolation.

The point of the plan layer is that chained Hadoop workloads are not
the sum of their parts: dependent stages serialise behind their
upstream's HDFS commit, inter-stage bytes travel the real write/read
path, and the cluster sees one long campaign instead of three cold
starts.  This benchmark runs the TPCx-HS chain (HSGen → HSSort →
HSValidate) once as a plan and once as three isolated single-job
captures of the same kinds and volume, and records:

* host wall-clock for the plan run vs the isolated runs,
* per-stage simulated JCT and wire volume (from the plan's stage
  manifest / flow attribution),
* the chaining cost: plan completion vs the isolated jobs' JCTs.

Writes ``BENCH_plans.json`` at the repo root.

Run via ``scripts/run_benchmarks.sh`` or::

    pytest benchmarks/bench_plans.py -m benchmark_suite -q -s
"""

import json
import time
from pathlib import Path

from repro.analysis.plans import stage_breakdown
from repro.experiments.campaigns import CampaignConfig, clear_cache
from repro.experiments.runner import CapturePoint, PlanPoint

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_plans.json"

SEED = 42
SCALE = 0.5  # GiB through the chain
CONFIG = CampaignConfig()  # canonical 8-node campaign cluster

#: The chain's stages as isolated single-job equivalents.
ISOLATED = [("teragen", SCALE), ("terasort", SCALE), ("grep", SCALE)]


def _run_plan():
    point = PlanPoint.from_campaign("tpcx-hs", SEED, CONFIG,
                                    {"scale": SCALE})
    started = time.perf_counter()
    result, trace = point.simulate()
    return time.perf_counter() - started, result, trace


def _run_isolated(job, input_gb):
    point = CapturePoint.from_campaign(job, input_gb, SEED, CONFIG)
    started = time.perf_counter()
    result, trace = point.simulate()
    return time.perf_counter() - started, result, trace


def test_chained_plan_vs_isolated_stages():
    clear_cache()
    mb = 1024.0 * 1024.0

    plan_s, plan_result, plan_trace = _run_plan()
    assert not plan_result.failed
    stage_rows = []
    for row in stage_breakdown(plan_trace):
        stage_rows.append({
            "stage": row["stage"], "kind": row["kind"],
            "jct_s": round(row["jct"], 3) if row["jct"] is not None else None,
            "maps": row["num_maps"], "reduces": row["num_reduces"],
            "shuffle_mb": round(row["shuffle_bytes"] / mb, 1),
            "wire_mb": round(row["wire_bytes"] / mb, 1),
            "flows": row["wire_flows"],
        })
        label = row["stage"]
        jct = f"{row['jct']:7.2f}s" if row["jct"] is not None else "      -"
        print(f"stage {label:12s} jct={jct} "
              f"wire={row['wire_bytes'] / mb:8.1f}MiB "
              f"flows={row['wire_flows']:4d}")

    isolated_rows = []
    isolated_wall = 0.0
    for job, input_gb in ISOLATED:
        wall_s, result, trace = _run_isolated(job, input_gb)
        isolated_wall += wall_s
        isolated_rows.append({
            "job": job, "input_gb": input_gb,
            "jct_s": round(result.completion_time, 3),
            "wall_s": round(wall_s, 4),
            "wire_mb": round(sum(f.size for f in trace.flows) / mb, 1),
        })
        print(f"isolated {job:10s} jct={result.completion_time:7.2f}s "
              f"wall={wall_s:6.2f}s")

    # Chaining serialises the dependent stages: the plan's completion
    # covers at least the longest isolated equivalent.
    longest_isolated = max(row["jct_s"] for row in isolated_rows)
    assert plan_result.completion_time >= longest_isolated

    completed = [s for s in plan_result.stages if s.job is not None]
    chained_jct = sum(s.job.completion_time for s in completed)
    report = {
        "plan": {"name": "tpcx-hs", "scale": SCALE, "seed": SEED,
                 "nodes": CONFIG.nodes},
        "plan_wall_s": round(plan_s, 4),
        "plan_completion_s": round(plan_result.completion_time, 3),
        "plan_flows": plan_trace.flow_count(),
        "stages": stage_rows,
        "isolated": isolated_rows,
        "isolated_wall_s": round(isolated_wall, 4),
        "chained_jct_sum_s": round(chained_jct, 3),
    }
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"\nplan bench: plan wall {plan_s:.2f}s "
          f"(completion {plan_result.completion_time:.2f}s) vs isolated "
          f"wall {isolated_wall:.2f}s -> {OUTPUT.name}")
