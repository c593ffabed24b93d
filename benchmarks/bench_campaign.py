"""Campaign-runner benchmark: cold serial vs cold parallel vs warm store.

Runs the representative evaluation campaign (the five-job HiBench-style
mix x the canonical four input sizes, default
:class:`~repro.experiments.campaigns.CampaignConfig`) three ways:

* **cold serial** — no store, one process: the pre-runner baseline,
* **cold parallel** — empty store, 4 workers: the fan-out path,
* **warm store** — same store, second run: pure store reads.

Asserts the subsystem's correctness contract (parallel and warm-store
traces byte-identical to serial; zero simulations on a warm store) and
a >= 10x warm-store speedup.  Both sides of that ratio swing with the
host from run to run, so cold serial and warm store are each timed
``REPEATS`` times, alternating, and the gate reads the ratio of their
medians.  The bench writes the measured wall-clock numbers (every
per-run ratio included) plus hit/miss counters to
``BENCH_campaign.json`` at the repo root, so the trajectory of campaign
throughput is tracked across PRs alongside ``BENCH_substrate.json``.

Run via ``scripts/run_benchmarks.sh`` or::

    pytest benchmarks/bench_campaign.py -m benchmark_suite -q -s
"""

import json
import os
import statistics
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
#: Alternating cold-serial / warm-store timings behind the gated ratio.
REPEATS = 5
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

    with tempfile.TemporaryDirectory(prefix="keddah-bench-store-") as root:
        store = CaptureStore(root)
        parallel_runner = CampaignRunner(store=store, workers=WORKERS)
        parallel_s, parallel = _timed(parallel_runner, points)
        assert parallel_runner.manifest()["stats"]["simulated"] == len(points)
        parallel_bytes = [_trace_bytes(trace) for _, trace in parallel]

        serial_runs, warm_runs = [], []
        for _ in range(REPEATS):
            serial_s, serial = _timed(CampaignRunner(store=None, workers=1),
                                      points)
            warm_runner = CampaignRunner(store=store, workers=WORKERS)
            warm_s, warm = _timed(warm_runner, points)
            assert warm_runner.manifest()["stats"]["simulated"] == 0, \
                "warm store must resolve every point without simulating"
            assert warm_runner.manifest()["stats"]["store_hits"] == len(points)
            assert parallel_bytes == [_trace_bytes(t) for _, t in serial], \
                "parallel campaign output must be byte-identical to serial"
            assert parallel_bytes == [_trace_bytes(t) for _, t in warm], \
                "warm-store campaign output must be byte-identical to serial"
            serial_runs.append(serial_s)
            warm_runs.append(warm_s)

        serial_s = statistics.median(serial_runs)
        warm_s = statistics.median(warm_runs)
        warm_speedup = serial_s / warm_s if warm_s > 0 else float("inf")
        parallel_speedup = serial_s / parallel_s if parallel_s > 0 else 0.0
        report = {
            "campaign": {"jobs": DEFAULT_JOBS, "sizes_gb": DEFAULT_SIZES_GB,
                         "points": len(points), "seed": DEFAULT_SEED},
            "cpus": cpus,
            "workers": WORKERS,
            "repeats": REPEATS,
            "cold_serial_s": round(serial_s, 4),
            "cold_parallel_s": round(parallel_s, 4),
            "warm_store_s": round(warm_s, 4),
            "cold_serial_runs_s": [round(run, 4) for run in serial_runs],
            "warm_store_runs_s": [round(run, 4) for run in warm_runs],
            "warm_store_run_ratios": [
                round(cold / warm, 3) if warm > 0 else None
                for cold, warm in zip(serial_runs, warm_runs)],
            "speedup_cold_parallel": round(parallel_speedup, 3),
            "speedup_warm_store": round(warm_speedup, 3),
            "byte_identical": True,
            "store": registry_values(store.registry, "store."),
            "warm_runner": warm_runner.manifest()["stats"],
            "parallel_runner": parallel_runner.manifest()["stats"],
        }
        OUTPUT.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
        print(f"\ncampaign bench: cold serial {serial_s:.2f}s (median of "
              f"{REPEATS}), cold parallel ({WORKERS} workers, {cpus} cpu) "
              f"{parallel_s:.2f}s [{parallel_speedup:.2f}x], warm store "
              f"{warm_s:.3f}s [{warm_speedup:.1f}x, median ratio] -> "
              f"{OUTPUT.name}")

    assert warm_speedup >= 10, \
        f"warm store should be >=10x faster than cold serial (ratio of " \
        f"medians), got {warm_speedup:.1f}x"
    # Process fan-out can only beat serial when there are cores to fan
    # out to; on a single-CPU runner the numbers are still recorded.
    if cpus >= WORKERS:
        assert parallel_speedup >= 2, \
            f"expected >=2x cold-parallel speedup on {cpus} cpus, " \
            f"got {parallel_speedup:.2f}x"
