"""Crash-injection stress: the supervised pool survives killed workers.

A campaign point that SIGKILLs its own worker process on first contact
collapses the whole ProcessPoolExecutor — every in-flight future breaks,
not just the guilty one.  This stress run asserts the supervision layer
(PR 4) absorbs that: the pool is rebuilt, collateral victims are
rescheduled without being charged an attempt, the killer point
completes on retry, and the final traces are byte-identical to an
undisturbed serial run of the same points.

Wall-clock and supervision counters land in
``BENCH_campaign_faults.json`` at the repo root.

Run via ``scripts/run_benchmarks.sh`` or::

    pytest benchmarks/bench_campaign_faults.py -m benchmark_suite -q -s
"""

import json
import os
import signal
import tempfile
import time
from pathlib import Path

from repro.experiments.campaigns import CampaignConfig
from repro.experiments.runner import CampaignRunner, CapturePoint, derive_seed
from repro.experiments.supervision import RetryPolicy

SMALL = CampaignConfig(nodes=4, hosts_per_rack=2)
SIZES = [0.0625, 0.125]
WORKERS = 2
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_campaign_faults.json"


class KillOncePoint(CapturePoint):
    """SIGKILLs its worker the first time, simulates cleanly after.

    The sentinel file (shared between pool workers and the parent via
    the filesystem) records that the kill already happened, so retries
    — and the serial baseline run afterwards — take the clean path.
    """

    def simulate(self, telemetry=None):
        kwargs = dict(self.job_kwargs)
        sentinel = Path(kwargs["sentinel"])
        if not sentinel.exists():
            sentinel.write_text("killed")
            os.kill(os.getpid(), signal.SIGKILL)
        clean = CapturePoint(job=self.job, input_gb=self.input_gb,
                             seed=self.seed, cluster_spec=self.cluster_spec,
                             hadoop_config=self.hadoop_config, job_kwargs=(),
                             key_config=self.key_config)
        return clean.simulate(telemetry)


def _points(tmp):
    healthy = [CapturePoint.from_campaign(job, gb, derive_seed(7, index),
                                          SMALL)
               for job in ("grep", "wordcount")
               for index, gb in enumerate(SIZES)]
    killer = KillOncePoint.from_campaign(
        "grep", SIZES[0], 1337, SMALL,
        {"sentinel": str(Path(tmp) / "kill.once")})
    return healthy + [killer]


def _trace_bytes(trace):
    return "\n".join(
        [json.dumps({"meta": trace.meta.to_dict()})]
        + [json.dumps(flow.to_dict()) for flow in trace.flows]).encode()


def test_campaign_survives_sigkilled_worker():
    with tempfile.TemporaryDirectory(prefix="keddah-bench-faults-") as tmp:
        points = _points(tmp)
        runner = CampaignRunner(
            store=None, workers=WORKERS,
            retry_policy=RetryPolicy(max_attempts=3))
        started = time.perf_counter()
        outcomes = runner.run(points)
        stressed_s = time.perf_counter() - started
        stats = runner.manifest()["stats"]

        assert all(outcome is not None for outcome in outcomes)
        assert stats["pool_failures"] >= 1, \
            "the SIGKILL must register as a pool failure"
        assert stats["simulated"] == len(points)
        assert not runner.failures

        # Byte-identity against an undisturbed serial pass (the
        # sentinel now exists, so the killer point runs clean).
        serial_runner = CampaignRunner(store=None, workers=1)
        started = time.perf_counter()
        serial = serial_runner.run(points)
        serial_s = time.perf_counter() - started
        assert [_trace_bytes(trace) for _, trace in outcomes] \
            == [_trace_bytes(trace) for _, trace in serial], \
            "crash recovery must not change campaign output"

        report = {
            "points": len(points), "workers": WORKERS,
            "stressed_s": round(stressed_s, 4),
            "serial_clean_s": round(serial_s, 4),
            "recovery_overhead_s": round(stressed_s - serial_s, 4),
            "byte_identical": True,
            "stressed_runner": stats,
        }
        OUTPUT.write_text(json.dumps(report, indent=2) + "\n",
                          encoding="utf-8")
        print(f"\ncrash stress: {len(points)} points / {WORKERS} workers, "
              f"1 SIGKILL -> {stressed_s:.2f}s stressed vs {serial_s:.2f}s "
              f"clean serial, {stats['pool_failures']} pool failure(s), "
              f"byte-identical -> {OUTPUT.name}")
