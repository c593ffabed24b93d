"""Campaign-runner benchmark: cold serial vs cold parallel vs warm store.

Runs the representative evaluation campaign (the five-job HiBench-style
mix x the canonical four input sizes, default
:class:`~repro.experiments.campaigns.CampaignConfig`) three ways:

* **cold serial** — no store, one process: the pre-runner baseline,
* **cold parallel** — empty store, 4 workers: the fan-out path,
* **warm store** — same store, second run: pure store reads.

Asserts the subsystem's correctness contract (parallel and warm-store
traces byte-identical to serial; zero simulations on a warm store) and
writes the measured wall-clock numbers plus hit/miss counters to
``BENCH_campaign.json`` at the repo root, so the trajectory of campaign
throughput is tracked across PRs alongside ``BENCH_substrate.json``.

Run via ``scripts/run_benchmarks.sh`` or::

    pytest benchmarks/bench_campaign.py -m benchmark_suite -q -s
"""

import json
import os
import tempfile
import time
from pathlib import Path

from repro.experiments.campaigns import (
    DEFAULT_JOBS,
    DEFAULT_SEED,
    DEFAULT_SIZES_GB,
    CampaignConfig,
)
from repro.experiments.runner import CampaignRunner, CapturePoint, derive_seed
from repro.experiments.store import CaptureStore

from benchmarks.conftest import registry_values

WORKERS = 4
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_campaign.json"


def _campaign_points():
    campaign = CampaignConfig()
    return [CapturePoint.from_campaign(job, gb, derive_seed(DEFAULT_SEED, index),
                                       campaign)
            for job in DEFAULT_JOBS
            for index, gb in enumerate(DEFAULT_SIZES_GB)]


def _trace_bytes(trace):
    return "\n".join(
        [json.dumps({"meta": trace.meta.to_dict()})]
        + [json.dumps(flow.to_dict()) for flow in trace.flows]).encode()


def _timed(runner, points):
    started = time.perf_counter()
    outcomes = runner.run(points)
    return time.perf_counter() - started, outcomes



def test_campaign_cold_parallel_and_warm_store():
    points = _campaign_points()
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else (os.cpu_count() or 1)

    serial_s, serial = _timed(CampaignRunner(store=None, workers=1), points)

    with tempfile.TemporaryDirectory(prefix="keddah-bench-store-") as root:
        store = CaptureStore(root)
        parallel_runner = CampaignRunner(store=store, workers=WORKERS)
        parallel_s, parallel = _timed(parallel_runner, points)
        assert parallel_runner.manifest()["stats"]["simulated"] == len(points)

        warm_runner = CampaignRunner(store=store, workers=WORKERS)
        warm_s, warm = _timed(warm_runner, points)
        assert warm_runner.manifest()["stats"]["simulated"] == 0, \
            "warm store must resolve every point without simulating"
        assert warm_runner.manifest()["stats"]["store_hits"] == len(points)

        serial_bytes = [_trace_bytes(trace) for _, trace in serial]
        assert serial_bytes == [_trace_bytes(trace) for _, trace in parallel], \
            "parallel campaign output must be byte-identical to serial"
        assert serial_bytes == [_trace_bytes(trace) for _, trace in warm], \
            "warm-store campaign output must be byte-identical to serial"

        warm_speedup = serial_s / warm_s if warm_s > 0 else float("inf")
        parallel_speedup = serial_s / parallel_s if parallel_s > 0 else 0.0
        report = {
            "campaign": {"jobs": DEFAULT_JOBS, "sizes_gb": DEFAULT_SIZES_GB,
                         "points": len(points), "seed": DEFAULT_SEED},
            "cpus": cpus,
            "workers": WORKERS,
            "cold_serial_s": round(serial_s, 4),
            "cold_parallel_s": round(parallel_s, 4),
            "warm_store_s": round(warm_s, 4),
            "speedup_cold_parallel": round(parallel_speedup, 3),
            "speedup_warm_store": round(warm_speedup, 3),
            "byte_identical": True,
            "store": registry_values(store.registry, "store."),
            "warm_runner": warm_runner.manifest()["stats"],
            "parallel_runner": parallel_runner.manifest()["stats"],
        }
        OUTPUT.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
        print(f"\ncampaign bench: cold serial {serial_s:.2f}s, cold parallel "
              f"({WORKERS} workers, {cpus} cpu) {parallel_s:.2f}s "
              f"[{parallel_speedup:.2f}x], warm store {warm_s:.3f}s "
              f"[{warm_speedup:.1f}x] -> {OUTPUT.name}")

    assert warm_speedup >= 10, \
        f"warm store should be >=10x faster than cold serial, got {warm_speedup:.1f}x"
    # Process fan-out can only beat serial when there are cores to fan
    # out to; on a single-CPU runner the numbers are still recorded.
    if cpus >= WORKERS:
        assert parallel_speedup >= 2, \
            f"expected >=2x cold-parallel speedup on {cpus} cpus, " \
            f"got {parallel_speedup:.2f}x"
