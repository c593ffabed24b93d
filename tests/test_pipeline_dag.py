"""The crash-safe pipeline DAG: wiring, caching, checkpoints, propagation."""

import dataclasses
import shutil

import pytest

from repro.experiments.dag import (
    BLOCKED,
    CACHED,
    CONTINUE,
    DONE,
    FAIL_FAST,
    QUARANTINED,
    SKIP_DESCENDANTS,
    SKIPPED,
    DAGRunner,
    PipelineCycleError,
    PipelineDAG,
    PipelineDefinitionError,
    PipelineFailed,
    StageNode,
    StageOutputMissing,
    digest_path,
    node_signature,
)
from repro.experiments.supervision import Quarantine, RetryPolicy

ONE_SHOT = RetryPolicy(max_attempts=1, base_delay=0.0, max_delay=0.0)
FAST_RETRIES = RetryPolicy(max_attempts=3, base_delay=0.0, max_delay=0.0)


def _emit(text):
    """A stage fn writing ``text`` + its config + its inputs' contents."""

    def stage(context):
        parts = [str(text)]
        parts.extend(f"{key}={value}"
                     for key, value in sorted(context.config.items()))
        for name in sorted(context.inputs):
            parts.append(
                context.input(name).read_text(encoding="utf-8").strip())
        for output in context.out_paths:
            context.write_output(output, "|".join(parts) + "\n")

    return stage


def _chain(tmp_path, *, poison=None, config=None):
    """a -> b -> c plus an independent z-indep, all fn-based."""

    def boom(context):
        raise ValueError("poisoned stage")

    dag = PipelineDAG("t")
    dag.add(StageNode("a", "emit", config=(config or {}).get("a", {}),
                      out_paths={"out": "a.txt"}, fn=_emit("A")))
    dag.add(StageNode("b", "emit", config=(config or {}).get("b", {}),
                      in_paths={"up": ("a", "out")},
                      out_paths={"out": "b.txt"},
                      fn=boom if poison == "b" else _emit("B")))
    dag.add(StageNode("c", "emit", in_paths={"up": ("b", "out")},
                      out_paths={"out": "c.txt"}, fn=_emit("C")))
    dag.add(StageNode("z-indep", "emit", out_paths={"out": "z.txt"},
                      fn=_emit("Z")))
    return dag


# -- structure ----------------------------------------------------------------------


def test_topological_order_is_deterministic_and_respects_edges(tmp_path):
    dag = _chain(tmp_path)
    order = dag.topological_order()
    assert order.index("a") < order.index("b") < order.index("c")
    assert order == dag.topological_order()
    assert set(order) == {"a", "b", "c", "z-indep"}


def test_cycle_detection_names_the_cycle_members():
    dag = PipelineDAG("cyclic")
    dag.add(StageNode("x", "emit", in_paths={"up": ("y", "out")},
                      out_paths={"out": "x.txt"}, fn=_emit("X")))
    dag.add(StageNode("y", "emit", in_paths={"up": ("x", "out")},
                      out_paths={"out": "y.txt"}, fn=_emit("Y")))
    with pytest.raises(PipelineCycleError) as err:
        dag.validate()
    assert "x" in str(err.value) and "y" in str(err.value)


def test_bad_wiring_is_rejected():
    dag = PipelineDAG("bad")
    dag.add(StageNode("n", "emit", in_paths={"up": ("ghost", "out")},
                      out_paths={"out": "n.txt"}, fn=_emit("N")))
    with pytest.raises(PipelineDefinitionError, match="unknown upstream"):
        dag.validate()

    dag2 = PipelineDAG("bad2")
    dag2.add(StageNode("a", "emit", out_paths={"out": "a.txt"},
                       fn=_emit("A")))
    dag2.add(StageNode("n", "emit", in_paths={"up": ("a", "nope")},
                       out_paths={"out": "n.txt"}, fn=_emit("N")))
    with pytest.raises(PipelineDefinitionError, match="unknown output"):
        dag2.validate()

    with pytest.raises(PipelineDefinitionError, match="no out_paths"):
        PipelineDAG("bad3").add(StageNode("n", "emit", fn=_emit("N")))

    dag4 = PipelineDAG("bad4")
    dag4.add(StageNode("n", "emit", out_paths={"out": "n.txt"}))
    with pytest.raises(PipelineDefinitionError, match="duplicate"):
        dag4.add(StageNode("n", "emit", out_paths={"out": "n.txt"}))


def test_descendants_are_transitive():
    dag = _chain(None)
    assert dag.descendants("a") == ["b", "c"]
    assert dag.descendants("b") == ["c"]
    assert dag.descendants("z-indep") == []


# -- signatures and digests ---------------------------------------------------------


def test_signature_changes_with_config_and_upstream_digest():
    node = StageNode("n", "emit", config={"k": 1},
                     in_paths={"up": ("a", "out")},
                     out_paths={"out": "n.txt"})
    base = node_signature(node, {"up": "d1"})
    assert node_signature(node, {"up": "d1"}) == base
    assert node_signature(node, {"up": "d2"}) != base
    edited = StageNode("n", "emit", config={"k": 2},
                       in_paths={"up": ("a", "out")},
                       out_paths={"out": "n.txt"})
    assert node_signature(edited, {"up": "d1"}) != base


def test_digest_path_ignores_dot_prefixed_bookkeeping(tmp_path):
    tree = tmp_path / "out"
    tree.mkdir()
    (tree / "data.txt").write_text("payload", encoding="utf-8")
    before = digest_path(tree)
    (tree / ".tmp-dropping.tmp").write_text("junk", encoding="utf-8")
    (tree / ".pred.json").write_text("{}", encoding="utf-8")
    assert digest_path(tree) == before
    (tree / "data.txt").write_text("payload2", encoding="utf-8")
    assert digest_path(tree) != before
    with pytest.raises(StageOutputMissing):
        digest_path(tmp_path / "missing")


# -- caching and invalidation -------------------------------------------------------


def test_run_then_rerun_hits_cache_with_zero_reexecution(tmp_path):
    root = tmp_path / "pl"
    first = DAGRunner(_chain(tmp_path), root, retry_policy=ONE_SHOT).run()
    assert first.states() == {"a": DONE, "b": DONE, "c": DONE,
                              "z-indep": DONE}
    assert first.ok
    assert first.artifact("c", "out").read_text(
        encoding="utf-8") == "C|B|A\n"

    # The stage fn is not part of the signature, so a rerun whose every
    # fn raises still hits the cache — and would fail if any node ran.
    def never(context):
        raise AssertionError(f"{context.name} re-executed")

    rerun = PipelineDAG("t")
    for node in _chain(tmp_path).nodes():
        rerun.add(dataclasses.replace(node, fn=never))
    second = DAGRunner(rerun, root, retry_policy=ONE_SHOT).run()
    assert second.states() == {name: CACHED for name in second.states()}


def test_config_edit_invalidates_exactly_node_and_descendants(tmp_path):
    root = tmp_path / "pl"
    DAGRunner(_chain(tmp_path), root, retry_policy=ONE_SHOT).run()

    edited = _chain(tmp_path, config={"b": {"tuned": True}})
    runner = DAGRunner(edited, root, retry_policy=ONE_SHOT)
    actions = {entry["node"]: entry["action"] for entry in runner.plan()}
    assert actions == {"a": "cached", "b": "run", "c": "stale-upstream",
                       "z-indep": "cached"}

    result = runner.run()
    assert result.states() == {"a": CACHED, "b": DONE, "c": DONE,
                               "z-indep": CACHED}
    # b re-keyed: both the old and new stage dirs exist, isolated.
    assert len(list((root / "nodes").glob("b@*"))) == 2


def test_cascade_cuts_off_when_upstream_bytes_are_unchanged(tmp_path):
    root = tmp_path / "pl"
    DAGRunner(_chain(tmp_path), root, retry_policy=ONE_SHOT).run()

    def same_bytes_b(context):
        context.write_output("out", "B|" + context.input("up").read_text(
            encoding="utf-8").strip() + "\n")

    edited = _chain(tmp_path)
    node = edited.node("b")
    edited._nodes["b"] = StageNode("b", "emit", config={"retuned": 1},
                                   in_paths=node.in_paths,
                                   out_paths=node.out_paths,
                                   fn=same_bytes_b)
    result = DAGRunner(edited, root, retry_policy=ONE_SHOT).run()
    # b re-ran under a new signature but reproduced identical bytes,
    # so the content-addressed cascade stops there: c stays cached.
    assert result.states() == {"a": CACHED, "b": DONE, "c": CACHED,
                               "z-indep": CACHED}


def test_pipeline_dir_is_relocatable(tmp_path):
    old_root = tmp_path / "old" / "pl"
    DAGRunner(_chain(tmp_path), old_root, retry_policy=ONE_SHOT).run()
    new_root = tmp_path / "moved-elsewhere"
    shutil.move(str(old_root), str(new_root))

    runner = DAGRunner(_chain(tmp_path), new_root, retry_policy=ONE_SHOT)
    result = runner.run()
    assert result.states() == {name: CACHED for name in result.states()}
    assert result.artifact("c", "out").read_text(
        encoding="utf-8") == "C|B|A\n"


def test_leftover_bookkeeping_from_older_roots_keeps_cache_hits(tmp_path):
    # Roots written before the manifest became the only checkpoint also
    # hold a journal.jsonl and per-node link records; they are ignored.
    root = tmp_path / "pl"
    first = DAGRunner(_chain(tmp_path), root, retry_policy=ONE_SHOT).run()
    (root / "journal.jsonl").write_text('{"dag_journal": {}}\n',
                                        encoding="utf-8")
    for outcome in first.outcomes.values():
        for name in (".pred.json", ".succ.json"):
            (root / outcome.dir / name).write_text("{}\n", encoding="utf-8")
    runner = DAGRunner(_chain(tmp_path), root, retry_policy=ONE_SHOT)
    assert {entry["action"] for entry in runner.plan()} == {"cached"}
    assert set(runner.run().states().values()) == {CACHED}


def test_corrupt_manifest_forces_rerun(tmp_path):
    root = tmp_path / "pl"
    first = DAGRunner(_chain(tmp_path), root, retry_policy=ONE_SHOT).run()
    manifest = root / first.outcomes["b"].dir / "outputs.json"
    manifest.write_text("{ not json", encoding="utf-8")

    runner = DAGRunner(_chain(tmp_path), root, retry_policy=ONE_SHOT)
    actions = {entry["node"]: entry["action"] for entry in runner.plan()}
    assert actions["a"] == "cached" and actions["b"] == "run"


def test_tampered_output_bytes_fail_verification(tmp_path):
    root = tmp_path / "pl"
    first = DAGRunner(_chain(tmp_path), root, retry_policy=ONE_SHOT).run()
    first.artifact("b", "out").write_text("tampered\n", encoding="utf-8")

    runner = DAGRunner(_chain(tmp_path), root, retry_policy=ONE_SHOT)
    actions = {entry["node"]: entry["action"] for entry in runner.plan()}
    assert actions["b"] == "run"


def test_started_but_uncommitted_node_plans_as_interrupted(tmp_path):
    root = tmp_path / "pl"
    DAGRunner(_chain(tmp_path, poison="b"), root, retry_policy=ONE_SHOT,
              on_failure=SKIP_DESCENDANTS).run()
    # b wrote node.json before its attempt and never published
    # outputs.json; c never started.
    runner = DAGRunner(_chain(tmp_path), root, retry_policy=ONE_SHOT)
    actions = {entry["node"]: entry["action"] for entry in runner.plan()}
    assert actions == {"a": "cached", "b": "interrupted",
                       "c": "stale-upstream", "z-indep": "cached"}
    assert runner.run().states() == {"a": CACHED, "b": DONE, "c": DONE,
                                     "z-indep": CACHED}


# -- failure propagation ------------------------------------------------------------


def test_fail_fast_blocks_descendants_and_skips_the_rest(tmp_path):
    runner = DAGRunner(_chain(tmp_path, poison="b"), tmp_path / "pl",
                       retry_policy=ONE_SHOT, on_failure=FAIL_FAST)
    with pytest.raises(PipelineFailed) as err:
        runner.run()
    result = err.value.result
    assert result.states() == {"a": DONE, "b": QUARANTINED, "c": BLOCKED,
                               "z-indep": SKIPPED}
    assert not result.ok
    assert result.failures and result.failures[0].attempts == 1


def test_continue_finishes_independent_branches_then_raises(tmp_path):
    runner = DAGRunner(_chain(tmp_path, poison="b"), tmp_path / "pl",
                       retry_policy=ONE_SHOT, on_failure=CONTINUE)
    with pytest.raises(PipelineFailed) as err:
        runner.run()
    result = err.value.result
    assert result.states() == {"a": DONE, "b": QUARANTINED, "c": BLOCKED,
                               "z-indep": DONE}


def test_skip_descendants_returns_partial_result_without_raising(tmp_path):
    runner = DAGRunner(_chain(tmp_path, poison="b"), tmp_path / "pl",
                       retry_policy=ONE_SHOT, on_failure=SKIP_DESCENDANTS)
    result = runner.run()
    assert result.states() == {"a": DONE, "b": QUARANTINED, "c": BLOCKED,
                               "z-indep": DONE}
    manifest = result.manifest()
    assert manifest["ok"] is False
    assert manifest["nodes"]["c"]["state"] == BLOCKED


def test_bad_propagation_mode_is_rejected(tmp_path):
    with pytest.raises(ValueError, match="on_failure"):
        DAGRunner(_chain(tmp_path), tmp_path / "pl", on_failure="explode")


# -- retries and quarantine ---------------------------------------------------------


def test_transient_failure_is_retried_to_success(tmp_path):
    sentinel = tmp_path / "already-failed"

    def flaky(context):
        if not sentinel.exists():
            sentinel.write_text("x", encoding="utf-8")
            raise OSError("transient worker loss")
        context.write_output("out", "ok\n")

    dag = PipelineDAG("flaky")
    dag.add(StageNode("f", "emit", out_paths={"out": "f.txt"}, fn=flaky))
    result = DAGRunner(dag, tmp_path / "pl",
                       retry_policy=FAST_RETRIES).run()
    assert result.states() == {"f": DONE}
    assert result.outcomes["f"].attempts == 2


def test_quarantine_sidecar_dedupes_across_resume_cycles(tmp_path):
    root = tmp_path / "pl"
    for _ in range(2):
        runner = DAGRunner(_chain(tmp_path, poison="b"), root,
                           retry_policy=ONE_SHOT,
                           quarantine=Quarantine(root / "quarantine.jsonl"),
                           on_failure=SKIP_DESCENDANTS)
        runner.run()
    failures = Quarantine.load(root / "quarantine.jsonl")
    assert len(failures) == 1
    assert failures[0].occurrences == 2
    assert failures[0].attempts == 2
    assert "b" in failures[0].job


# -- deadlines ----------------------------------------------------------------------


def test_deadline_kills_a_registry_stage(tmp_path):
    dag = PipelineDAG("slow")
    dag.add(StageNode("napper", "sleep", config={"seconds": 30.0},
                      out_paths={"marker": "marker.txt"}))
    runner = DAGRunner(
        dag, tmp_path / "pl",
        retry_policy=RetryPolicy(max_attempts=1, deadline_s=1.5),
        on_failure=SKIP_DESCENDANTS)
    result = runner.run()
    assert result.states() == {"napper": QUARANTINED}
    assert "deadline" in result.outcomes["napper"].reason.lower()
