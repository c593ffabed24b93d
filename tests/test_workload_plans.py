"""Workload-plan IR, executor semantics and per-stage analysis.

Covers the plan DAG structure (validation, topology, identity), the
:class:`~repro.mapreduce.driver.PlanExecutor` runtime contracts —
dependency-ordered stage windows, concurrent root admission, fan-in
sizing, carryover selection, determinism — and the per-stage flow
attribution and scoring in :mod:`repro.analysis.plans`.  Plan points
in the capture store — keys disjoint from single-job points, warm reads
byte-identical to cold ones — are covered in ``test_plan_campaign.py``.
"""

import pytest

from repro.analysis.plans import (
    is_plan_trace,
    plan_meta,
    plan_score,
    stage_breakdown,
    stage_flows,
    stage_table,
)
from repro.capture.records import TrafficComponent
from repro.cluster.config import ClusterSpec, HadoopConfig
from repro.cluster.units import MB
from repro.jobs import (
    JobIdStream,
    PlanEdge,
    PlanStage,
    WorkloadPlan,
    make_job,
    make_plan,
    plan_catalog,
)
from repro.mapreduce.cluster import HadoopCluster

SMALL_GB = 0.0625  # 64 MiB -> 2 blocks at 32 MiB


def small_cluster(seed=7, **spec_kwargs):
    return HadoopCluster(
        ClusterSpec(num_nodes=4, hosts_per_rack=2, **spec_kwargs),
        HadoopConfig(block_size=32 * MB, num_reducers=2), seed=seed)


def trace_bytes(trace, tmp_path, name):
    path = tmp_path / name
    trace.to_jsonl(path)
    return path.read_bytes()


# -- IR validation ------------------------------------------------------------------


def test_root_stage_requires_external_input():
    with pytest.raises(ValueError, match="external input_gb"):
        PlanStage(name="a", kind="grep")


def test_stage_rejects_both_input_kinds():
    with pytest.raises(ValueError, match="pick one"):
        PlanStage(name="a", kind="grep", input_gb=1.0,
                  inputs=(PlanEdge("b"),))


@pytest.mark.parametrize("name", ["a/b", "a.b"])
def test_stage_name_excludes_path_and_id_separators(name):
    with pytest.raises(ValueError, match="may not contain"):
        PlanStage(name=name, kind="grep", input_gb=1.0)


@pytest.mark.parametrize("carryover", [0.0, -0.5, 1.5])
def test_edge_carryover_must_be_a_usable_fraction(carryover):
    with pytest.raises(ValueError, match="carryover"):
        PlanEdge("a", carryover=carryover)


def test_stage_rejects_duplicate_upstream():
    with pytest.raises(ValueError, match="twice"):
        PlanStage(name="b", kind="join",
                  inputs=(PlanEdge("a"), PlanEdge("a")))


def test_plan_rejects_duplicate_stage_names():
    stage = PlanStage(name="a", kind="grep", input_gb=1.0)
    with pytest.raises(ValueError, match="duplicate"):
        WorkloadPlan(name="p", stages=(stage, stage))


def test_plan_rejects_unknown_dependency():
    with pytest.raises(ValueError, match="unknown stage"):
        WorkloadPlan(name="p", stages=(
            PlanStage(name="b", kind="sort", inputs=(PlanEdge("ghost"),)),))


def test_plan_rejects_self_dependency():
    with pytest.raises(ValueError, match="itself"):
        WorkloadPlan(name="p", stages=(
            PlanStage(name="b", kind="sort", inputs=(PlanEdge("b"),)),))


def test_plan_rejects_cycles():
    with pytest.raises(ValueError, match="cycle"):
        WorkloadPlan(name="p", stages=(
            PlanStage(name="a", kind="sort", inputs=(PlanEdge("b"),)),
            PlanStage(name="b", kind="sort", inputs=(PlanEdge("a"),)),
        ))


def test_plan_needs_stages():
    with pytest.raises(ValueError, match="no stages"):
        WorkloadPlan(name="p", stages=())


def test_topological_order_breaks_ties_by_declaration():
    plan = make_plan("pig-aggregation")
    assert [s.name for s in plan.topological_order()] == [
        "extract", "aggregate", "join", "order"]
    assert [s.name for s in plan.roots()] == ["extract", "aggregate"]


# -- identity: dicts, signatures, catalog -------------------------------------------


def test_plan_dict_roundtrip_preserves_identity():
    plan = make_plan("pig-aggregation", input_gb=0.5, num_reducers=3)
    rebuilt = WorkloadPlan.from_dict(plan.to_dict())
    assert rebuilt == plan
    assert rebuilt.signature() == plan.signature()


def test_signature_tracks_parameters():
    assert (make_plan("tpcx-hs", scale=1.0).signature()
            != make_plan("tpcx-hs", scale=2.0).signature())
    # Same parameters, fresh builds: signatures are stable.
    assert (make_plan("tpcx-hs", scale=1.0).signature()
            == make_plan("tpcx-hs", scale=1.0).signature())


def test_catalog_lists_builtin_plans():
    catalog = plan_catalog()
    assert {"pig-aggregation", "tpcx-hs"} <= set(catalog)


def test_make_plan_rejects_unknown_names_and_bad_params():
    with pytest.raises(ValueError, match="unknown plan"):
        make_plan("no-such-plan")
    with pytest.raises(ValueError, match="bad parameters"):
        make_plan("tpcx-hs", bogus=1)


def test_external_gb_sums_root_inputs():
    plan = make_plan("pig-aggregation", input_gb=0.5)
    assert plan.external_gb == pytest.approx(1.0)  # two roots at 0.5 each


# -- executor semantics: the pig chain ----------------------------------------------


@pytest.fixture(scope="module")
def pig_run():
    cluster = small_cluster(seed=7)
    plan = make_plan("pig-aggregation", input_gb=SMALL_GB, num_reducers=2)
    result, trace = cluster.run_plan(plan, plan_id="pig")
    return plan, result, trace


def test_pig_chain_completes_every_stage(pig_run):
    _, result, _ = pig_run
    assert not result.failed
    assert [s.name for s in result.stages] == [
        "extract", "aggregate", "join", "order"]
    assert all(s.completed for s in result.stages)


def test_dependent_stages_wait_for_upstream_output(pig_run):
    _, result, _ = pig_run
    join = result.stage("join").job
    order = result.stage("order").job
    upstream_done = max(result.stage("extract").job.finish_time,
                        result.stage("aggregate").job.finish_time)
    assert join.submit_time >= upstream_done
    assert order.submit_time >= join.finish_time


def test_independent_roots_are_admitted_concurrently(pig_run):
    _, result, _ = pig_run
    extract = result.stage("extract").job
    aggregate = result.stage("aggregate").job
    assert extract.submit_time == aggregate.submit_time == 0.0
    assert result.completion_time < sum(stage.job.completion_time
                                        for stage in result.stages)


def test_fan_in_stage_reads_both_upstream_outputs(pig_run):
    _, result, _ = pig_run
    upstream = (result.stage("extract").job.output_bytes
                + result.stage("aggregate").job.output_bytes)
    join = result.stage("join").job
    assert join.input_bytes == pytest.approx(upstream)


def test_stage_job_ids_derive_from_the_plan_id(pig_run):
    _, result, trace = pig_run
    meta = plan_meta(trace)
    assert {entry["job_id"] for entry in meta["stages"]} == {
        "pig.extract", "pig.aggregate", "pig.join", "pig.order"}


def test_plan_trace_meta_shape(pig_run):
    _, result, trace = pig_run
    assert is_plan_trace(trace)
    assert trace.meta.job_kind == "plan:pig-aggregation"
    assert trace.meta.job_id == "pig"
    assert trace.meta.extra["completion_time"] == pytest.approx(
        result.completion_time)


def test_every_completed_stage_owns_wire_traffic(pig_run):
    """Each stage's flows carry its own job id (exact attribution)."""
    _, _, trace = pig_run
    flows = stage_flows(trace)
    for stage in ("extract", "aggregate", "join", "order"):
        assert sum(f.size for f in flows[stage]) > 0


def test_flow_attribution_partitions_the_trace(pig_run):
    _, _, trace = pig_run
    flows = stage_flows(trace)
    assert set(flows) == {"extract", "aggregate", "join", "order", "(shared)"}
    assert sum(len(group) for group in flows.values()) == trace.flow_count()
    # Shared traffic is control-plane only.
    assert all(f.component == TrafficComponent.CONTROL.value
               for f in flows["(shared)"])


def test_stage_breakdown_accounts_for_every_stage(pig_run):
    _, result, trace = pig_run
    rows = stage_breakdown(trace)
    assert [row["stage"] for row in rows] == [
        "extract", "aggregate", "join", "order", "(shared)"]
    by_stage = {row["stage"]: row for row in rows}
    assert by_stage["join"]["deps"] == ["extract", "aggregate"]
    assert by_stage["join"]["jct"] == pytest.approx(
        result.stage("join").job.completion_time)
    wire_total = sum(row["wire_bytes"] for row in rows)
    assert wire_total == pytest.approx(sum(f.size for f in trace.flows))


def test_stage_table_renders_without_score(pig_run):
    _, _, trace = pig_run
    table = stage_table(trace)
    assert len(table.rows) == 5
    assert any("plan completion" in note for note in table.notes)
    assert not any("score" in note for note in table.notes)


def test_single_job_traces_are_not_plan_traces():
    cluster = small_cluster(seed=5)
    _, traces = cluster.run([make_job("grep", input_gb=SMALL_GB,
                                      job_id="job_plain_0001")])
    assert not is_plan_trace(traces[0])
    with pytest.raises(ValueError, match="not a plan capture"):
        plan_meta(traces[0])


# -- executor semantics: tpcx-hs and carryover --------------------------------------


@pytest.fixture(scope="module")
def hs_run():
    cluster = small_cluster(seed=3)
    plan = make_plan("tpcx-hs", scale=SMALL_GB, num_reducers=2)
    result, trace = cluster.run_plan(plan, plan_id="hs")
    return plan, result, trace


def test_tpcx_hs_phases_chain_generator_to_validator(hs_run):
    _, result, _ = hs_run
    assert [s.name for s in result.stages] == ["hsgen", "hssort", "hsvalidate"]
    assert not result.failed
    hsgen = result.stage("hsgen").job
    hssort = result.stage("hssort").job
    # Full carryover: the sort consumes exactly what HSGen wrote.
    assert hssort.input_bytes == pytest.approx(hsgen.output_bytes)
    # The validation pass is a map-only scan.
    assert result.stage("hsvalidate").job.num_reduces == 0


def test_tpcx_hs_reports_an_hsph_score(hs_run):
    _, result, trace = hs_run
    score = plan_score(trace)
    expected = SMALL_GB / (result.completion_time / 3600.0)
    assert score == pytest.approx(expected)
    assert any("hsph" in note for note in stage_table(trace).notes)


def test_carryover_selects_a_file_granular_prefix():
    plan = WorkloadPlan(name="half-scan", stages=(
        # 4 reducers -> 4 part files, so a 0.5 carryover can pick a
        # strict prefix (teragen would write one monolithic file).
        PlanStage(name="gen", kind="terasort", input_gb=SMALL_GB,
                  num_reducers=4),
        PlanStage(name="scan", kind="grep",
                  inputs=(PlanEdge("gen", carryover=0.5),)),
    ))
    cluster = small_cluster(seed=9)
    result, _ = cluster.run_plan(plan, plan_id="half")
    gen = result.stage("gen").job
    scan = result.stage("scan").job
    # A strict subset of the upstream bytes, but at least half of them
    # (selection rounds *up* to whole files).
    assert 0 < scan.input_bytes < gen.output_bytes
    assert scan.input_bytes >= 0.5 * gen.output_bytes - 1.0


def test_plan_runs_are_deterministic(tmp_path):
    captures = []
    for attempt in range(2):
        cluster = small_cluster(seed=13)
        plan = make_plan("tpcx-hs", scale=SMALL_GB, num_reducers=2)
        _, trace = cluster.run_plan(plan, plan_id="det")
        captures.append(trace_bytes(trace, tmp_path, f"run{attempt}.jsonl"))
    assert captures[0] == captures[1]


# -- job id allocation (owned by the cluster) ---------------------------------------


def test_id_stream_counts_per_kind():
    stream = JobIdStream()
    assert stream.allocate("terasort") == "job_terasort_0001"
    assert stream.allocate("grep") == "job_grep_0001"
    assert stream.allocate("terasort") == "job_terasort_0002"
    assert JobIdStream().allocate("terasort") == "job_terasort_0001"


def _submitted_ids(cluster, kinds):
    """Submit one id-less spec per kind; the ids the cluster gave them."""
    return [cluster.submit_job(make_job(kind, input_gb=SMALL_GB)).spec.job_id
            for kind in kinds]


def test_id_allocation_is_identical_serial_vs_interleaved():
    """The id of "the k-th job of a kind" depends only on its cluster.

    A process-global counter made it depend on every spec any code had
    built before: interleaving submissions to two clusters changed
    every id.
    """
    serial = _submitted_ids(small_cluster(), ["terasort"] * 3)
    a, b = small_cluster(), small_cluster()
    interleaved_a, interleaved_b = [], []
    for _ in range(3):
        interleaved_a += _submitted_ids(a, ["terasort"])
        interleaved_b += _submitted_ids(b, ["terasort"])
    assert interleaved_a == serial
    assert interleaved_b == serial


def test_cluster_names_id_less_specs_per_kind_in_submission_order():
    cluster = small_cluster()
    specs = [make_job("terasort", input_gb=SMALL_GB),
             make_job("grep", input_gb=SMALL_GB),
             make_job("terasort", input_gb=SMALL_GB)]
    assert [spec.job_id for spec in specs] == ["", "", ""]
    results, traces = cluster.run(specs, arrival_times=[0.0, 0.5, 1.0])
    named = ["job_terasort_0001", "job_grep_0001", "job_terasort_0002"]
    assert [result.job_id for result in results] == named
    assert [trace.meta.job_id for trace in traces] == named
    assert specs[2].input_path == "/data/job_terasort_0002/input"
    fresh, _ = small_cluster().run([make_job("terasort", input_gb=SMALL_GB)])
    assert fresh[0].job_id == "job_terasort_0001"
