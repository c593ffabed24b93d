#!/usr/bin/env bash
# Repo health gate: lint (when available) + tier-1 tests + telemetry
# null-path smoke.  Run it before committing, and from
# scripts/run_benchmarks.sh (opt out with KEDDAH_SKIP_CHECK=1).
#
# Usage: scripts/check.sh [extra pytest args...]
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

# 1. Lint — ruff is optional in the minimal container; skip gracefully.
if command -v ruff >/dev/null 2>&1; then
    echo "== ruff =="
    ruff check src tests benchmarks scripts
else
    echo "== ruff: not installed, skipping lint =="
fi

# 2. Repo hygiene: compiled bytecode must never be committed.  The
#    tree once grew stale .pyc files that shadowed edited sources;
#    .gitignore covers them, and this guard fails the gate if any ever
#    get force-added.
echo "== tracked-bytecode guard =="
if git ls-files | grep -E '(\.pyc$|__pycache__/)'; then
    echo "error: compiled bytecode is tracked by git (see above)" >&2
    exit 1
fi
echo "no tracked bytecode"

# 3. Tier-1 tests (benchmarks/ are excluded by their conftest).  The
#    per-test hang guard (tests/conftest.py) turns a hung test into a
#    readable failure instead of a stuck gate; override the budget by
#    exporting KEDDAH_TEST_TIMEOUT yourself.
echo "== tier-1 pytest =="
KEDDAH_TEST_SHUFFLE="" KEDDAH_TEST_TIMEOUT="${KEDDAH_TEST_TIMEOUT:-120}" \
    python -m pytest -x -q "$@"

# 3b. Tier-1 again in a seeded shuffled order (tests/conftest.py), so a
#    test that depends on another's side effects fails the gate.  The
#    seed is fixed and printed; rerun with the same KEDDAH_TEST_SHUFFLE
#    to reproduce the order.
SHUFFLE_SEED="${KEDDAH_TEST_SHUFFLE:-1}"
echo "== tier-1 pytest, shuffled (KEDDAH_TEST_SHUFFLE=$SHUFFLE_SEED) =="
KEDDAH_TEST_SHUFFLE="$SHUFFLE_SEED" \
    KEDDAH_TEST_TIMEOUT="${KEDDAH_TEST_TIMEOUT:-120}" \
    python -m pytest -x -q "$@"

# 4. Transport-backend differential gate: the analytic and record
#    backends must keep reproducing the fluid backend's flow
#    populations (and the exporters' bytes) before anything ships.
#    Redundant with tier-1 when the full suite ran, but kept explicit
#    so a scoped `check.sh -k <pattern>` run still exercises it.
echo "== transport-backend differential suite =="
python -m pytest tests/test_backend_differential.py tests/test_net_backend.py -q

# 5. Fluid-engine differential gate: the incremental allocator must keep
#    agreeing with the max_min_rates oracle on randomized fabrics, cap
#    classes and add/remove churn; the id-indexed progress loop must
#    keep matching its dict-keyed reference bit for bit (link_bytes key
#    order included); batched rate updates must keep capturing the same
#    flows as recomputing at every change; and the oracle-free
#    invariants (link bytes vs crossing flows, HDFS replicas vs write
#    hops, shuffle flow counts, every recompute feasible and max-min)
#    must hold on every backend.
echo "== fluid-engine differential suite =="
python -m pytest tests/test_fairshare_incremental.py \
    tests/test_scalar_progress_reference.py \
    tests/test_end_to_end_properties.py -q

# 6. Batched-admission differential gate: start_flows is every
#    backend's only admission path (start_flow is a one-request wave),
#    and admitting a wave must stay observationally identical to
#    admitting the same requests as one-request waves, on every
#    backend, with and without hop latency — the contract every
#    batching producer (shuffle bursts, write pipelines) leans on.
echo "== batched-admission differential suite =="
python -m pytest tests/test_flow_batching.py -q

# 6b. Model-selection identity gate: the KS distance that ranks every
#    candidate fit must equal scipy's kstest statistic bit for bit on
#    seeded captures, ties, single samples and NaN CDFs, and
#    fit_candidates must rank families in kstest order.  The Weibull
#    fit must stay the exact MLE: never a lower likelihood than
#    scipy's Nelder-Mead fit on those captures, a zero score at the
#    returned shape, and finite parameters on extreme samples.  The
#    lognormal mixture's EM, which runs every restart at once on
#    (R, n, k) arrays, must serialise equal with == to the sequential
#    per-restart reference on those captures and on randomized tiny,
#    near-constant and tied samples.
echo "== model-selection identity suite =="
python -m pytest tests/test_ks_distance_reference.py tests/test_weibull_mle.py \
    tests/test_mixture_em_reference.py -q

# 7. Telemetry merge and loading gate: worker registry snapshots must
#    fold into the parent registry (counters and histograms sum,
#    gauges keep a per-worker series, callback gauges are never
#    overwritten), and telemetry directories must load back through
#    one loader: plain dirs, pipeline roots under node labels, a
#    damaged artefact raising an error that names the file (top and
#    report --telemetry exit 2 on it), and the report/trace/top
#    commands that read them.  Redundant with tier-1
#    on a full run, explicit so scoped runs still exercise it.
echo "== telemetry merge and loading suite =="
python -m pytest tests/test_obs_metrics.py tests/test_cli_telemetry.py -q

# 8. Pipeline crash-resume gate: SIGKILL a pipeline mid-fit, resume,
#    and require zero re-execution of completed nodes plus
#    byte-identical final artifacts; then verify a config edit to one
#    mid-DAG node invalidates exactly that node and its descendants.
echo "== pipeline crash-resume gate =="
python scripts/pipeline_gate.py

# 9. Campaign crash-resume gate: SIGKILL a campaign while it simulates
#    a point, then require the capture store to hold every point that
#    finished before the kill, a rerun to simulate only the rest, and
#    the stored bytes to equal an uninterrupted run's.
echo "== campaign crash-resume gate =="
python -m pytest tests/test_campaign_crash_resume.py -q

# 9b. Supervised-executor suite: campaign points and pipeline nodes
#    run on one executor (experiments/supervision.py) under one
#    RetryPolicy (attempt budget, deadline) — retries, deadline kills
#    (one fingerprint for a hung task whichever watchdog path caught
#    it), worker deaths charged to the one attempt budget (a task that
#    kills every worker it runs on is quarantined and its caller
#    lives), quarantine and its damaged-sidecar error, fail-fast
#    (every node after a quarantined one blocked), plan() predicting
#    run() per node, capture nodes
#    retried only by the pipeline's own attempt budget, a deadline-run
#    node keeping its telemetry, and a worker count that never re-keys
#    the capture sweep — plus the one capture resolver (memo, then the
#    store KEDDAH_CAPTURE_STORE names, then a store → simulate
#    CampaignRunner) and its bounded LRU memo.  Explicit so scoped runs
#    still exercise all of it.
echo "== supervised-executor suite =="
python -m pytest tests/test_supervision.py tests/test_campaign_runner.py \
    tests/test_pipeline_dag.py tests/test_pipeline_supervision.py -q

# 10. Workload-plan suite: the plan IR/executor semantics must hold,
#    and plan store entries must stay disjoint from single-job
#    entries.  Explicit so scoped runs still exercise the contract.
echo "== workload-plan suite =="
python -m pytest tests/test_workload_plans.py tests/test_plan_campaign.py -q

# 11. Telemetry null-path smoke: an un-configured run must emit zero
#    spans and zero probe samples while the perf counters stay live.
echo "== telemetry null-path smoke =="
python - <<'EOF'
from repro.api import run_capture
from repro.obs import NULL_SINK, Telemetry

telemetry = Telemetry.disabled()
trace = run_capture("terasort", input_gb=0.125, nodes=4, seed=1,
                    telemetry=telemetry)
assert telemetry.sink is NULL_SINK, "disabled telemetry allocated a sink"
assert telemetry.tracer.spans_started == 0, "null path started spans"
assert telemetry.tracer.spans_emitted == 0, "null path emitted spans"
assert telemetry.probes.total_samples() == 0, "null path sampled probes"
assert telemetry.registry.value("sim.events_fired") > 0, \
    "registry counters must stay live on the null path"
print(f"null path clean: {trace.flow_count()} flows, "
      f"{int(telemetry.registry.value('sim.events_fired'))} events, "
      "0 spans, 0 probe samples")
EOF

# 12. Examples smoke: every examples/*.py must run to completion.  The
#    examples write keddah-* directories into the cwd, so each one runs
#    from its own fresh temp directory; any non-zero exit fails the
#    gate and prints that example's output.
echo "== examples smoke =="
repo="$(pwd)"
examples_tmp="$(mktemp -d)"
trap 'rm -rf "$examples_tmp"' EXIT
for example in examples/*.py; do
    run_dir="$(mktemp -d "$examples_tmp/run.XXXXXX")"
    if (cd "$run_dir" && PYTHONPATH="$repo/src" \
            python "$repo/$example" >"$run_dir/output.log" 2>&1); then
        echo "ok: $example"
    else
        cat "$run_dir/output.log" >&2
        echo "error: $example exited non-zero (output above)" >&2
        exit 1
    fi
done

# 13. Recorded-results gate: the 25 shape benchmarks (A1-A5, E1-E20)
#    must hold their qualitative claims, and EXPERIMENTS.md's recorded
#    output must equal a fresh run byte for byte (--check diffs and
#    exits non-zero; it rewrites nothing).
echo "== shape benchmarks and recorded output =="
python -m pytest -q -m benchmark_suite benchmarks/bench_a*.py \
    benchmarks/bench_e*.py
python scripts/regenerate_experiments_md.py --check

echo "src/ python lines: $(find src -name '*.py' -print0 | xargs -0 cat | wc -l)"
echo "check.sh: all gates passed"
