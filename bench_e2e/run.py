"""End-to-end benchmark of the capture → model → reproduce toolchain.

Run from the repository root::

    python3 bench_e2e/run.py --workload pipeline_cold --seed 42 \\
        --seconds 20 --trace 0
    python3 bench_e2e/run.py --workload all --out results.json

One invocation runs one workload (``all`` runs each in turn, one child
process per workload).  It prepares the inputs from ``--seed`` (timed
as ``setup_s``), makes one untimed warm-up run, then repeats the run
until ``--seconds`` have passed (at least three runs) and reports the
median.  Times are scaled to a reference host speed (see
``hostspeed.py``).  Every run's outputs are checked: the invariants
always, and on the recorded seed the sha256 digests in
``digests.json``.  With ``--trace 1`` it then profiles one more run
and makes one counting run with telemetry enabled, and reports the
per-layer metrics instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Everything
above it is human-readable.  See NOTES.md for what each workload and
metric means.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from hostspeed import REFERENCE_S, HostSpeed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DIGESTS_FILE = BENCH_DIR / "digests.json"
WORK_DIR = ROOT / ".bench_e2e_work"
SPEC_FILE = ROOT / "BENCHMARK.json"

MIN_RUNS = 3
SETUP_REPEATS = 5

WORKLOAD_NAMES = ("pipeline_cold", "capture_fabric", "model_replay")


class SourceMissing(RuntimeError):
    """The checkout holds no program to benchmark."""


def import_program() -> None:
    """Put the checkout's ``src`` first on the path; import the program."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        raise SourceMissing(f"no program source at {source}")
    sys.path[:0] = [str(source), str(BENCH_DIR)]
    import repro
    import workloads  # noqa: F401  (imports every layer the runs use)
    if Path(repro.__file__).resolve().parent != (source / "repro").resolve():
        raise SourceMissing(f"imported repro from {repro.__file__}, "
                            f"not {source}")


def import_seconds(speed: HostSpeed) -> float:
    """Seconds a fresh interpreter takes to import what the runs use, at
    the reference speed.

    The child times the reference kernel around the import itself: it
    may run on another CPU than this process, at another speed.
    """
    code = ("import sys, time; sys.path[:0] = sys.argv[1:]; "
            "from hostspeed import reference_seconds; "
            "before = reference_seconds(); "
            "started = time.perf_counter(); import workloads; "
            "seconds = time.perf_counter() - started; "
            "print(before, seconds, reference_seconds())")
    child = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "src"), str(BENCH_DIR)],
        stdout=subprocess.PIPE, text=True, check=True, timeout=120)
    before, seconds, after = map(float, child.stdout.split()[-3:])
    return speed.scale(seconds, before, after)


# -- per-run memory ---------------------------------------------------------------


def reset_peak_rss() -> None:
    """Reset this process's peak resident set (Linux ``clear_refs`` 5)."""
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def peak_rss_mb() -> float:
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


# -- statistics -------------------------------------------------------------------


def metric_units(section: str) -> Dict[str, str]:
    """Name -> unit of every metric ``BENCHMARK.json`` lists in a section."""
    spec = json.loads(SPEC_FILE.read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def quartiles(values: List[float]) -> str:
    """'median M (q1 A, q3 B)' of some seconds, for the log."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"median {median:.4f} s (q1 {q1:.4f}, q3 {q3:.4f})"


def load_digests() -> Dict[str, Any]:
    return json.loads(DIGESTS_FILE.read_text(encoding="utf-8"))


# -- one workload -----------------------------------------------------------------


class Tally:
    """Operations attempted and failed, with the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def add(self, outcome: Any, expected_digest: Optional[str]) -> None:
        mismatch = (expected_digest is not None
                    and outcome.digest != expected_digest)
        self.attempted += outcome.attempted
        self.failed += min(outcome.attempted, outcome.failed + mismatch)
        self.problems.extend(outcome.problems)
        if mismatch:
            self.problems.append(f"output digest {outcome.digest[:16]} != "
                                 f"recorded {expected_digest[:16]}")

    def crash(self, exc: BaseException) -> None:
        self.attempted += 1
        self.failed += 1
        self.problems.append(f"{type(exc).__name__}: {exc}")

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


class Timing(NamedTuple):
    outcome: Any        # the RunOutcome, or None if the run raised
    wall_s: float       # host seconds
    scaled_s: float     # host seconds at the reference speed
    rss_mb: float       # the run's own peak resident set


def timed_run(workload: Any, tally: Tally, expected: Optional[str],
              speed: HostSpeed, counting: bool = False,
              profiler: Optional[cProfile.Profile] = None) -> Timing:
    """One run, timed (and profiled, given a profiler); its peak memory
    is read when the clock stops, and its outputs are checked after.
    """
    crash: Optional[Exception] = None
    reset_peak_rss()
    speed.start()
    started = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    try:
        raw = workload.run(counting=counting)
    except Exception as exc:  # a crashed run is a failed operation
        crash = exc
    finally:
        if profiler is not None:
            profiler.disable()
    wall_s = time.perf_counter() - started
    rss_mb = peak_rss_mb()
    timing = Timing(None, wall_s, speed.scaled(wall_s), rss_mb)
    if crash is None:
        try:
            timing = timing._replace(outcome=workload.check(raw))
        except Exception as exc:
            crash = exc
    if crash is not None:
        tally.crash(crash)
    else:
        tally.add(timing.outcome, expected)
    return timing


def measure(name: str, seed: int, seconds: float, trace: bool,
            scale: str = "full", expected_digest: Optional[str] = None,
            log: Callable[[str], None] = print) -> Dict[str, Any]:
    """Benchmark one workload; returns the result object (see module doc).

    ``expected_digest`` overrides the recorded digest (the self-test
    passes a wrong one); by default the recorded digest is checked only
    on the recorded seed at full scale.
    """
    from workloads import DIGEST_SEED, WORKLOADS

    if expected_digest is None and scale == "full" and seed == DIGEST_SEED:
        expected_digest = load_digests()[name]["sha256"]
    work_dir = WORK_DIR / name
    shutil.rmtree(work_dir, ignore_errors=True)
    workload = WORKLOADS[name](seed, scale, work_dir)
    speed = HostSpeed()
    try:
        imports, setups, setups_host = [], [], []
        for _ in range(SETUP_REPEATS):
            imports.append(import_seconds(speed))
            speed.start()
            started = time.perf_counter()
            workload.setup()
            setups_host.append(time.perf_counter() - started)
            setups.append(speed.scaled(setups_host[-1]))
        setup_s = statistics.median(imports) + statistics.median(setups)

        tally = Tally()
        timed_run(workload, tally, expected_digest, speed)     # warm-up
        runs: List[Timing] = []
        deadline = time.perf_counter() + seconds
        while len(runs) < MIN_RUNS or time.perf_counter() < deadline:
            runs.append(timed_run(workload, tally, expected_digest, speed))
        flows = next((run.outcome.flows for run in reversed(runs)
                      if run.outcome is not None), 0)
        scaled = [run.scaled_s for run in runs]
        wall_s = statistics.median(scaled)
        log(f"{name}: seed {seed}, {len(runs)} timed runs, {flows} flows "
            f"per run")
        log(f"  wall_s at reference speed: {quartiles(scaled)}")
        log(f"  host seconds: {quartiles([run.wall_s for run in runs])}; "
            f"set-up host seconds: {quartiles(setups_host)}")
        log(f"  reference kernel: {quartiles(speed.samples)} "
            f"(reference speed {REFERENCE_S} s)")

        if trace:
            metrics = traced_metrics(workload, tally, expected_digest,
                                     speed, runs, log)
        else:
            metrics = {
                "wall_s": wall_s,
                "us_per_flow": wall_s / flows * 1e6 if flows else 0.0,
                "peak_rss_mb": statistics.median(run.rss_mb
                                                 for run in runs),
                "setup_s": setup_s,
            }
        log(f"{name}: error_rate {tally.error_rate:.4f} "
            f"({tally.failed} failed of {tally.attempted} operations)")
        for problem in tally.problems[:10]:
            log(f"  FAILED: {problem}")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    units = metric_units("per_layer" if trace else "end_to_end")
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} "
                           f"disagree with {SPEC_FILE.name}")
    for metric, value in metrics.items():
        log(f"  {metric} = {value:.6g} {units[metric]}")
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {metric: {"value": value, "unit": units[metric]}
                        for metric, value in metrics.items()}}


def traced_metrics(workload: Any, tally: Tally, expected: Optional[str],
                   speed: HostSpeed, runs: List[Timing],
                   log: Callable[[str], None]) -> Dict[str, float]:
    """The profiling pass and the counting pass; per-layer metrics."""
    import layers

    profiler = cProfile.Profile()
    profiled = timed_run(workload, tally, expected, speed, profiler=profiler)
    stats = pstats.Stats(profiler).stats  # type: ignore[attr-defined]
    self_times = layers.attribute_self_time(stats)
    counted = timed_run(workload, tally, expected, speed,
                        counting=True).outcome
    if profiled.outcome is None or counted is None:
        raise RuntimeError("traced run failed: " + "; ".join(tally.problems))
    untraced_s = statistics.median(run.scaled_s for run in runs)

    metrics = layers.self_time_metrics(self_times)
    metrics.update(layers.entry_point_timings(stats))
    metrics.update(layers.counter_metrics(
        counted.counts, counted.observed, self_times,
        whole_gauges=workload.name == "capture_fabric"))
    metrics["trace.wall_s"] = profiled.wall_s
    metrics["trace.overhead_frac"] = profiled.scaled_s / untraced_s - 1.0
    metrics["host.wall_s"] = statistics.median(run.wall_s for run in runs)
    metrics["host.reference_s"] = statistics.median(speed.samples)
    metrics["error_rate"] = tally.error_rate
    attributed = sum(self_times.values())
    log(f"{workload.name}: self-time rows sum to {attributed:.4f} s of "
        f"{profiled.wall_s:.4f} s traced wall "
        f"({metrics['trace.overhead_frac']:+.2%} tracing overhead)")
    if workload.name == "capture_fabric":
        log("  invariants: remote shuffle flows "
            f"{counted.observed['invariant.shuffle_flows']:.0f} = maps x "
            "reduces - local fetches "
            f"{counted.observed['invariant.shuffle_expected']:.0f} (gated); "
            "HDFS write hops "
            f"{counted.observed['invariant.hdfs_write_hops']:.0f} vs blocks "
            "x replication "
            f"{counted.observed['invariant.hdfs_blocks_x_replication']:.0f} "
            "(not gated, see NOTES.md)")
    return metrics


# -- command line -----------------------------------------------------------------


def run_all(args: argparse.Namespace) -> int:
    """Every workload, one child process each, in turn."""
    results = {}
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace",
                   str(args.trace), "--scale", args.scale]
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                               check=False)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode != 0 or not lines:
            print(f"{name}: exited {child.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    summary = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "workloads": results}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2) + "\n")
    print(json.dumps(summary))
    return 0


def record_digests(names: Tuple[str, ...]) -> int:
    """Record each missing digest for the recorded seed; see below."""
    return max(record_digest(name) for name in names)


def record_digest(name: str) -> int:
    """Record ``name``'s digest for the recorded seed if none is recorded.

    A recorded digest is never replaced: a mismatch is a failure to
    explain, not a value to refresh.  Delete the entry by hand to
    re-record it deliberately.
    """
    from workloads import DIGEST_SEED, WORKLOADS

    recorded = load_digests() if DIGESTS_FILE.exists() else {}
    if name in recorded:
        print(f"{name}: digest already recorded; not replacing it",
              file=sys.stderr)
        return 1
    work_dir = WORK_DIR / name
    workload = WORKLOADS[name](DIGEST_SEED, "full", work_dir)
    try:
        workload.setup()
        outcome = workload.check(workload.run())
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    if outcome.problems:
        print(f"{name}: not recording a failing run: {outcome.problems}",
              file=sys.stderr)
        return 1
    recorded[name] = {"seed": DIGEST_SEED, "sha256": outcome.digest}
    DIGESTS_FILE.write_text(json.dumps(recorded, indent=2, sort_keys=True)
                            + "\n", encoding="utf-8")
    print(f"{name}: recorded {outcome.digest}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: self-test sizes, no recorded digest")
    parser.add_argument("--out", help="also write the result JSON here")
    parser.add_argument("--record-digest", action="store_true",
                        help="record the workload's output digest for the "
                             "recorded seed (never replaces one)")
    args = parser.parse_args(argv)

    try:
        import_program()
    except SourceMissing as exc:
        print(f"bench_e2e: {exc}", file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    if args.record_digest:
        return record_digests(names)
    if args.workload == "all":
        return run_all(args)
    result = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace), scale=args.scale)
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
