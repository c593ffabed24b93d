#!/usr/bin/env bash
# Run the performance benchmarks and write the machine-readable results
# next to the repo root, so the BENCH_*.json trajectory can track the
# engine's speed across PRs.  Tier-1 test runs (`python -m pytest -x -q`)
# skip these.
#
# Eight artefacts:
#   BENCH_substrate.json — pytest-benchmark timings of the fluid engine
#   BENCH_campaign.json  — campaign runner: cold serial vs cold parallel
#                          vs warm capture store, with hit/miss counters
#                          (written by benchmarks/bench_campaign.py)
#   BENCH_telemetry.json — telemetry null-path and enabled-run overhead
#                          on a terasort capture
#                          (benchmarks/bench_telemetry_overhead.py)
#   BENCH_campaign_faults.json — crash-injection stress: supervised pool
#                          vs SIGKILLed workers, recovery overhead and
#                          byte-identity (benchmarks/bench_campaign_faults.py)
#   BENCH_backends.json  — transport backends: fluid vs analytic wall-clock
#                          on the E12-style scaling campaign, flow-population
#                          identity asserted (benchmarks/bench_backends.py)
#   BENCH_flow_batching.json — batched start_flows admission vs per-flow
#                          events on fat-tree wave workloads: per-flow
#                          overhead in microseconds, speedup, byte-identity
#                          flags and a >=4096-host scale run
#                          (benchmarks/bench_flow_batching.py)
#   BENCH_pipeline.json  — crash-safe pipeline DAG: cold flat campaign vs
#                          cold DAG vs warm all-cached DAG, warm-skip
#                          speedup (benchmarks/bench_pipeline.py)
#   BENCH_plans.json     — workload plans: the TPCx-HS chain as one plan
#                          vs its stages as isolated captures, with
#                          per-stage JCT/volume rows and the chaining
#                          overhead (benchmarks/bench_plans.py)
#
# Usage: scripts/run_benchmarks.sh [substrate_output.json] [extra pytest args...]
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_substrate.json}"
shift || true

# Health gate first (lint + tier-1 + telemetry null-path smoke), so
# benchmark numbers are never recorded off a broken tree.  Opt out with
# KEDDAH_SKIP_CHECK=1 when iterating on benchmarks alone.
if [[ "${KEDDAH_SKIP_CHECK:-0}" != "1" ]]; then
    scripts/check.sh
fi

PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m pytest \
    benchmarks/bench_substrate_perf.py \
    --benchmark-only \
    --benchmark-json="${out}" \
    -q -s "$@"

PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m pytest \
    benchmarks/bench_campaign.py \
    -m benchmark_suite \
    -q -s "$@"

PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m pytest \
    benchmarks/bench_telemetry_overhead.py \
    -m benchmark_suite \
    -q -s "$@"

PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m pytest \
    benchmarks/bench_campaign_faults.py \
    -m benchmark_suite \
    -q -s "$@"

PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m pytest \
    benchmarks/bench_backends.py \
    -m benchmark_suite \
    -q -s "$@"

PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m pytest \
    benchmarks/bench_flow_batching.py \
    -m benchmark_suite \
    -q -s "$@"

PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m pytest \
    benchmarks/bench_pipeline.py \
    -m benchmark_suite \
    -q -s "$@"

PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m pytest \
    benchmarks/bench_plans.py \
    -m benchmark_suite \
    -q -s "$@"
