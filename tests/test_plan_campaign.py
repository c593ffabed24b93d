"""Plan captures through the campaign cache hierarchy, store and CLI.

Three properties keep plan and single-job captures safely co-resident
in one store:

* **key-schema disjointness** — plan keys carry a ``plan`` block and
  no ``job``/``input_gb``/``job_kwargs`` fields, single-job keys the
  reverse, so the two families can never alias (golden-asserted here);
* **polymorphic entries** — store payloads carry a ``result_type``
  discriminator so a decoded plan entry comes back as a
  :class:`PlanResult` (absence still means ``job``);
* **byte-identical replay** — a warm-store plan capture returns the
  exact bytes the cold run produced.
"""

import json

import pytest

from repro.analysis.plans import is_plan_trace, plan_meta
from repro.capture.records import JobTrace
from repro.cli import main
from repro.experiments import campaigns
from repro.experiments.campaigns import (
    CampaignConfig,
    capture_plan,
    clear_cache,
)
from repro.experiments.runner import CapturePoint, PlanPoint
from repro.experiments.store import (
    STORE_ENV_VAR,
    TRACE_FORMAT_VERSION,
    decode_entry,
    encode_entry,
)
from repro.mapreduce.result import PlanResult

SMALL = CampaignConfig(nodes=4, hosts_per_rack=2, num_reducers=2)
TINY = 0.0625  # GiB of external input / scale factor


@pytest.fixture(autouse=True)
def isolated_caches(monkeypatch):
    monkeypatch.delenv(STORE_ENV_VAR, raising=False)
    clear_cache()
    yield
    clear_cache()


def _stored(root):
    return list((root / "objects").glob("*/*.jsonl"))


def _forbid_simulation(monkeypatch):
    """From here on, a capture must come from the store or the memo."""
    def unreachable(self, telemetry=None):
        raise AssertionError(f"re-simulated {self.key()[:12]}")

    monkeypatch.setattr(CapturePoint, "simulate", unreachable)
    monkeypatch.setattr(PlanPoint, "simulate", unreachable)


def _plan_point(params=None, seed=3):
    return PlanPoint.from_campaign("tpcx-hs", seed, SMALL,
                                   params or {"scale": TINY})


def _jsonl(trace, tmp_path, name):
    path = tmp_path / name
    trace.to_jsonl(path)
    return path.read_bytes()


# -- key schemas --------------------------------------------------------------------


def test_key_schemas_are_disjoint_golden():
    capture_key = CapturePoint.from_campaign("grep", TINY, 3, SMALL).key_dict()
    plan_key = _plan_point().key_dict()
    assert set(capture_key) == {"backend", "config", "format", "input_gb",
                                "job", "job_kwargs", "seed"}
    assert set(plan_key) == {"backend", "config", "format", "plan", "seed"}
    # The discriminating blocks never appear in the other family.
    assert "plan" not in capture_key
    assert "job" not in plan_key and "input_gb" not in plan_key


def test_plan_key_carries_name_params_and_signature():
    key = _plan_point().key_dict()
    assert key["format"] == TRACE_FORMAT_VERSION
    assert key["plan"]["name"] == "tpcx-hs"
    assert key["plan"]["params"] == {"scale": TINY}
    assert len(key["plan"]["signature"]) == 64
    assert json.dumps(key, sort_keys=True)  # keys stay JSON-serialisable


def test_plan_keys_separate_parameterisations():
    base = _plan_point({"scale": TINY})
    assert base.key() == _plan_point({"scale": TINY}).key()
    assert base.key() != _plan_point({"scale": 2 * TINY}).key()
    assert base.key() != _plan_point({"scale": TINY}, seed=4).key()


def test_plan_logical_key_is_backend_independent():
    fluid = _plan_point()
    analytic = PlanPoint.from_campaign(
        "tpcx-hs", 3, CampaignConfig(nodes=4, hosts_per_rack=2,
                                     num_reducers=2, backend="analytic"),
        {"scale": TINY})
    assert fluid.key() != analytic.key()
    assert fluid.logical_key() == analytic.logical_key()


def test_plan_point_supervision_surface():
    point = _plan_point()
    assert point.job == "plan:tpcx-hs"
    assert point.input_gb == pytest.approx(TINY)


# -- polymorphic store entries ------------------------------------------------------


@pytest.fixture(scope="module")
def hs_capture(tmp_path_factory):
    clear_cache()
    with pytest.MonkeyPatch.context() as patch:
        patch.delenv(STORE_ENV_VAR, raising=False)
        result, trace = capture_plan("tpcx-hs", {"scale": TINY}, seed=3,
                                     campaign=SMALL)
    clear_cache()
    return result, trace


def test_capture_plan_returns_plan_result_and_plan_trace(hs_capture):
    result, trace = hs_capture
    assert isinstance(result, PlanResult)
    assert not result.failed
    assert is_plan_trace(trace)
    assert plan_meta(trace)["params"] == {"scale": TINY}


def test_plan_entries_roundtrip_with_their_type(hs_capture, tmp_path):
    result, trace = hs_capture
    payload = encode_entry(_plan_point().key_dict(), result, trace)
    header = json.loads(payload.splitlines()[0])
    assert header["result_type"] == "plan"
    decoded_result, decoded_trace = decode_entry(payload)
    assert isinstance(decoded_result, PlanResult)
    assert decoded_result.to_dict() == result.to_dict()
    assert (_jsonl(decoded_trace, tmp_path, "decoded.jsonl")
            == _jsonl(trace, tmp_path, "original.jsonl"))


def test_unknown_result_type_is_rejected(hs_capture):
    result, trace = hs_capture
    payload = encode_entry(_plan_point().key_dict(), result, trace)
    lines = payload.splitlines()
    header = json.loads(lines[0])
    header["result_type"] = "mystery"
    tampered = "\n".join([json.dumps(header)] + lines[1:]) + "\n"
    with pytest.raises(ValueError, match="result_type"):
        decode_entry(tampered)


# -- cache hierarchy ----------------------------------------------------------------


def test_warm_store_replay_is_byte_identical(tmp_path, monkeypatch):
    monkeypatch.setenv(STORE_ENV_VAR, str(tmp_path / "store"))
    _, cold = capture_plan("tpcx-hs", {"scale": TINY}, seed=3, campaign=SMALL)
    assert len(_stored(tmp_path / "store")) == 1
    clear_cache()  # drop the memo so the store must answer
    _forbid_simulation(monkeypatch)
    warm_result, warm = capture_plan("tpcx-hs", {"scale": TINY}, seed=3,
                                     campaign=SMALL)
    assert isinstance(warm_result, PlanResult)
    assert (_jsonl(warm, tmp_path, "warm.jsonl")
            == _jsonl(cold, tmp_path, "cold.jsonl"))


def test_memo_serves_repeat_plan_captures(tmp_path, monkeypatch):
    _, first = capture_plan("tpcx-hs", {"scale": TINY}, seed=3,
                            campaign=SMALL)
    _forbid_simulation(monkeypatch)
    _, second = capture_plan("tpcx-hs", {"scale": TINY}, seed=3,
                             campaign=SMALL)
    assert second is first
    assert campaigns._MEMO.stats()["hits"] >= 1
    assert (_jsonl(second, tmp_path, "second.jsonl")
            == _jsonl(first, tmp_path, "first.jsonl"))


def test_plan_and_job_entries_coexist_in_one_store(tmp_path, monkeypatch):
    from repro.experiments.campaigns import capture

    monkeypatch.setenv(STORE_ENV_VAR, str(tmp_path / "store"))
    capture_plan("tpcx-hs", {"scale": TINY}, seed=3, campaign=SMALL)
    capture("grep", TINY, seed=3, campaign=SMALL)
    assert len(_stored(tmp_path / "store")) == 2
    clear_cache()
    _forbid_simulation(monkeypatch)
    _, plan_trace = capture_plan("tpcx-hs", {"scale": TINY}, seed=3,
                                 campaign=SMALL)
    _, job_trace = capture("grep", TINY, seed=3, campaign=SMALL)
    assert is_plan_trace(plan_trace)
    assert not is_plan_trace(job_trace)


# -- CLI ----------------------------------------------------------------------------


def test_cli_plans_list(capsys):
    assert main(["plans", "list"]) == 0
    out = capsys.readouterr().out
    assert "pig-aggregation" in out
    assert "tpcx-hs" in out


def test_cli_plans_show(capsys):
    assert main(["plans", "show", "tpcx-hs"]) == 0
    out = capsys.readouterr().out
    assert "hsgen" in out and "hssort" in out and "hsvalidate" in out
    assert "hsph" in out


def test_cli_plans_show_unknown_plan(capsys):
    assert main(["plans", "show", "no-such-plan"]) != 0


def test_cli_capture_plan_end_to_end(tmp_path, capsys):
    path = tmp_path / "hs.jsonl"
    code = main(["capture", "--plan", "tpcx-hs", "--scale", str(TINY),
                 "--nodes", "4", "--hosts-per-rack", "2", "--reducers", "2",
                 "--seed", "3", "-o", str(path)])
    assert code == 0
    out = capsys.readouterr().out
    # The per-stage breakdown and score print with the capture summary.
    assert "hsgen" in out and "hssort" in out
    assert "hsph" in out
    trace = JobTrace.from_jsonl(path)
    assert is_plan_trace(trace)
    assert trace.meta.job_kind == "plan:tpcx-hs"


def test_cli_capture_plan_through_store(tmp_path, capsys):
    path = tmp_path / "hs.jsonl"
    args = ["capture", "--plan", "tpcx-hs", "--scale", str(TINY),
            "--nodes", "4", "--hosts-per-rack", "2", "--reducers", "2",
            "--seed", "3", "--store", str(tmp_path / "store"),
            "-o", str(path)]
    assert main(args) == 0
    cold = path.read_bytes()
    assert ", simulated)" in capsys.readouterr().out
    assert main(args) == 0
    assert ", store)" in capsys.readouterr().out
    assert path.read_bytes() == cold


def test_cli_capture_rejects_job_and_plan_together(tmp_path, capsys):
    code = main(["capture", "--job", "grep", "--plan", "tpcx-hs",
                 "-o", str(tmp_path / "x.jsonl")])
    assert code == 2
    assert "exactly one" in capsys.readouterr().out


def test_cli_capture_rejects_plan_params_on_jobs(tmp_path, capsys):
    code = main(["capture", "--job", "grep", "--scale", "1",
                 "-o", str(tmp_path / "x.jsonl")])
    assert code == 2
    assert "--plan" in capsys.readouterr().out


def test_cli_capture_needs_some_workload(tmp_path, capsys):
    assert main(["capture", "-o", str(tmp_path / "x.jsonl")]) == 2
