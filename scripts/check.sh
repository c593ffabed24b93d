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

# 5. Fluid-engine differential gate: the vectorized engine must keep
#    agreeing with the scalar oracle — bitwise on randomized fabrics,
#    byte-identical on a seeded capture — and the engine axis must
#    keep validating at every entry point.  Both engines run here.
echo "== fluid-engine differential suite =="
python -m pytest tests/test_fairshare_incremental.py tests/test_engine_axis.py -q

# 6. Batched-admission differential gate: admitting a wave through
#    start_flows must stay observationally identical to looping
#    start_flow, on every substrate and both fluid engines — the
#    contract every batching producer (shuffle bursts, write
#    pipelines) leans on.
echo "== batched-admission differential suite =="
python -m pytest tests/test_flow_batching.py -q

# 7. Live-observability gate: the serve daemon, the aggregate merge
#    layer and the alert engine — including the mid-run /metrics
#    liveness test and the byte-identity-with-server-attached test.
#    Redundant with tier-1 on a full run, explicit so scoped runs
#    still exercise the daemon end to end.
echo "== live-observability suite =="
python -m pytest tests/test_obs_server.py tests/test_obs_aggregate.py \
    tests/test_obs_alerts.py -q

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

echo "src/ python lines: $(find src -name '*.py' -print0 | xargs -0 cat | wc -l)"
echo "check.sh: all gates passed"
