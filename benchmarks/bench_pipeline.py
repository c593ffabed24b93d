"""Pipeline DAG benchmark: cold DAG vs warm all-cached vs flat campaign.

Runs the built-in capture→classify→fit→replay→validate→report pipeline
(terasort + grep over three sizes) three ways:

* **cold flat** — the pre-DAG baseline: the same capture points through
  a storeless :class:`~repro.experiments.runner.CampaignRunner` (the
  capture work every flat experiment re-derives from scratch),
* **cold pipeline** — the full DAG in a fresh root: capture plus every
  downstream stage, checkpointed and digested,
* **warm pipeline** — a second runner over the same root: every node
  must be a cache hit (manifest + digest verification only).

Asserts the caching contract (zero re-executed nodes warm) and writes
the wall-clocks and the warm-skip speedup to ``BENCH_pipeline.json`` at
the repo root.

Run via ``scripts/run_benchmarks.sh`` or::

    pytest benchmarks/bench_pipeline.py -m benchmark_suite -q -s
"""

import json
import tempfile
import time
from pathlib import Path

from repro.experiments.dag import CACHED, DAGRunner
from repro.experiments.pipelines import (
    PipelineSpec,
    build_pipeline,
    capture_point_payloads,
    _payload_point,
)
from repro.experiments.runner import CampaignRunner

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_pipeline.json"

SPEC = PipelineSpec(jobs=("terasort", "grep"),
                    sizes_gb=(0.125, 0.25, 0.5))


def test_pipeline_warm_dag_skips_all_work():
    points = [_payload_point(payload)
              for payload in capture_point_payloads(SPEC)]

    started = time.perf_counter()
    CampaignRunner(store=None, workers=1).run(points)
    flat_s = time.perf_counter() - started

    with tempfile.TemporaryDirectory(prefix="keddah-bench-pl-") as tmp:
        root = Path(tmp) / "pipeline"

        started = time.perf_counter()
        cold = DAGRunner(build_pipeline(SPEC), root).run()
        cold_s = time.perf_counter() - started
        assert cold.ok

        started = time.perf_counter()
        warm = DAGRunner(build_pipeline(SPEC), root).run()
        warm_s = time.perf_counter() - started
        assert warm.ok
        assert all(outcome.state == CACHED
                   for outcome in warm.outcomes.values()), \
            "warm pipeline must be cache hits only"

    warm_speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    report = {
        "spec": SPEC.to_dict(),
        "capture_points": len(points),
        "nodes": len(warm.outcomes),
        "cold_flat_campaign_s": round(flat_s, 4),
        "cold_pipeline_s": round(cold_s, 4),
        "warm_pipeline_s": round(warm_s, 4),
        "pipeline_overhead_vs_flat_s": round(cold_s - flat_s, 4),
        "speedup_warm_vs_cold": round(warm_speedup, 3),
        "warm_cache_hits": len(warm.outcomes),
    }
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"\npipeline bench: cold flat {flat_s:.2f}s, cold DAG {cold_s:.2f}s,"
          f" warm DAG {warm_s:.3f}s [{warm_speedup:.1f}x] -> {OUTPUT.name}")

    assert warm_speedup >= 3, \
        f"warm DAG should be >=3x faster than cold, got {warm_speedup:.1f}x"
