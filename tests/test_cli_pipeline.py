"""The ``keddah pipeline`` verb: run, plan, resume, and top."""

import json

import pytest

from repro.cli import main
from repro.experiments.pipelines import load_spec

TINY = ["--job", "grep", "--sizes-gb", "0.0625,0.125"]


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-pipeline") / "pl"
    assert main(["pipeline", "run", "--dir", str(root), *TINY,
                 "--telemetry"]) == 0
    return root


def test_run_saves_spec_and_writes_all_stage_dirs(pipeline_dir):
    spec = load_spec(pipeline_dir)
    assert spec.jobs == ("grep",)
    assert spec.sizes_gb == (0.0625, 0.125)
    names = {path.name.split("@")[0]
             for path in (pipeline_dir / "nodes").iterdir()}
    assert names == {"capture", "classify", "fit", "replay", "validate",
                     "report"}
    report = next(pipeline_dir.glob("nodes/report@*/work/report.md"))
    assert "pipeline" in report.read_text(encoding="utf-8").lower()


def _plan_actions(out):
    actions = {}
    for line in out.splitlines():
        parts = line.split()
        if parts and parts[0] in {"capture", "classify", "fit", "replay",
                                  "validate", "report"}:
            actions[parts[0]] = parts[2]
    return actions


def test_plan_is_all_cached_after_a_run(pipeline_dir, capsys, tmp_path):
    assert main(["pipeline", "plan", "--dir", str(pipeline_dir),
                 *TINY]) == 0
    out = capsys.readouterr().out
    assert out.count("cached") >= 6
    assert "run" in out  # the action column header / legend

    # Planning executes nothing.
    fresh = tmp_path / "fresh"
    assert main(["pipeline", "plan", "--dir", str(fresh), *TINY]) == 0
    assert _plan_actions(capsys.readouterr().out)["capture"] == "run"
    assert not (fresh / "nodes").exists()


def test_plan_reports_every_committed_node_as_cached(pipeline_dir, capsys):
    # The node manifests are the only record of a root's state: plan with
    # only --dir reads the saved spec and reports every node as cached.
    assert main(["pipeline", "plan", "--dir", str(pipeline_dir)]) == 0
    actions = _plan_actions(capsys.readouterr().out)
    assert "fit" in actions and "report" in actions
    assert set(actions.values()) == {"cached"}


def test_warm_rerun_is_all_cache_hits(pipeline_dir, capsys):
    assert main(["pipeline", "run", "--dir", str(pipeline_dir),
                 *TINY]) == 0
    out = capsys.readouterr().out
    assert "cached" in out


def test_config_edit_via_flags_invalidates_fit_and_downstream(
        pipeline_dir, capsys):
    # Default training is all-but-largest; training on both sizes is a
    # real fit-config edit, so the plan re-runs fit and marks its
    # descendants stale while upstream stays cached.
    assert main(["pipeline", "plan", "--dir", str(pipeline_dir), *TINY,
                 "--fit-sizes-gb", "0.0625,0.125"]) == 0
    actions = _plan_actions(capsys.readouterr().out)
    assert actions["capture"] == "cached"
    assert actions["classify"] == "cached"
    assert actions["replay"] == "cached"
    assert actions["fit"] == "run"
    assert actions["validate"] == "stale-upstream"
    assert actions["report"] == "stale-upstream"


def test_top_renders_node_labelled_pipeline_telemetry(pipeline_dir, capsys):
    assert main(["top", str(pipeline_dir)]) == 0
    out = capsys.readouterr().out
    assert "node=capture" in out
    assert "pipeline.runs" in out


def test_bad_spec_values_are_rejected_cleanly(tmp_path, capsys):
    assert main(["pipeline", "run", "--dir", str(tmp_path / "pl"),
                 "--sizes-gb", "not-a-number"]) == 2
    assert "bad pipeline spec" in capsys.readouterr().out


def _saved_figure_spec(root, experiments):
    """A ``pipeline.json`` as saved when the pipeline had figure nodes."""
    root.mkdir(parents=True)
    spec = {"jobs": ["grep"], "sizes_gb": [0.0625, 0.125],
            "fit_sizes_gb": None, "seed": 42, "campaign": {},
            "experiments": experiments, "plans": [],
            "e12_job": "terasort", "e12_input_gb": 1.0,
            "e12_nodes": [4, 8, 16, 32], "e12_repeats": 3,
            "e18_job": "terasort", "e18_target_gb": 2.0, "workers": 1}
    (root / "pipeline.json").write_text(
        json.dumps({"format": 1, "spec": spec}), encoding="utf-8")


def test_saved_spec_with_figure_nodes_is_refused(tmp_path, capsys):
    # Its e12/e18 nodes are gone; resuming must say so, not drop them.
    root = tmp_path / "pl"
    _saved_figure_spec(root, ["e12", "e18"])
    assert main(["pipeline", "resume", "--dir", str(root)]) == 2
    out = capsys.readouterr().out
    assert "bad pipeline spec" in out
    assert "keddah experiment e12 e18" in out


def test_saved_spec_without_figure_nodes_still_loads(tmp_path):
    root = tmp_path / "pl"
    _saved_figure_spec(root, [])
    spec = load_spec(root)
    assert spec.jobs == ("grep",)
    assert spec.sizes_gb == (0.0625, 0.125)


def test_resume_without_a_pipeline_is_a_clean_error(tmp_path, capsys):
    assert main(["pipeline", "resume", "--dir",
                 str(tmp_path / "missing")]) == 2
    assert "pipeline.json" in capsys.readouterr().out


def test_run_failure_returns_nonzero_and_keeps_partial_work(tmp_path,
                                                            capsys):
    # grep at a size not in the capture sweep cannot happen via the CLI
    # (the spec derives everything), so exercise the failure path with a
    # deadline that no capture stage can meet.
    root = tmp_path / "pl"
    code = main(["pipeline", "run", "--dir", str(root), *TINY,
                 "--deadline", "0.000001", "--retries", "1"])
    assert code == 1
    out = capsys.readouterr().out
    assert "quarantined" in out
    assert main(["pipeline", "plan", "--dir", str(root)]) == 0
    assert _plan_actions(capsys.readouterr().out)["capture"] == "interrupted"
    assert json.loads((root / "quarantine.jsonl").read_text(
        encoding="utf-8").splitlines()[0])
