"""Campaign runner: determinism, parallel fan-out, seed unification, memo."""

import json

import pytest

from repro import run_capture_campaign
from repro.cluster.config import HadoopConfig
from repro.cluster.units import MB
from repro.experiments import campaigns
from repro.experiments.campaigns import (
    CampaignConfig,
    _LruMemo,
    capture,
    capture_campaign,
    clear_cache,
)
from repro.experiments.runner import (
    CampaignRunner,
    CapturePoint,
    derive_seed,
    default_workers,
)
from repro.experiments.store import STORE_ENV_VAR, CaptureStore

SMALL = CampaignConfig(nodes=4, hosts_per_rack=2)
SIZES = [0.0625, 0.125]


@pytest.fixture(autouse=True)
def isolated_caches(monkeypatch):
    monkeypatch.delenv(STORE_ENV_VAR, raising=False)
    clear_cache()
    yield
    clear_cache()


def _points(job="grep", sizes=SIZES, seed=3):
    return [CapturePoint.from_campaign(job, gb, derive_seed(seed, index), SMALL)
            for index, gb in enumerate(sizes)]



def _trace_jsonl(trace, tmp_path, name):
    path = tmp_path / name
    trace.to_jsonl(path)
    return path.read_bytes()


# -- seed derivation ----------------------------------------------------------------


def test_derive_seed_is_the_documented_formula():
    assert derive_seed(42, 0) == 42 * 10_007
    assert derive_seed(42, 3, repeat=7) == 42 * 10_007 + 3 * 101 + 7


def test_derive_seed_injective_over_realistic_sweeps():
    seen = set()
    for index in range(20):
        for repeat in range(20):
            seen.add(derive_seed(5, index, repeat))
    assert len(seen) == 400


def test_api_and_campaign_layers_share_the_seed_rule():
    config = HadoopConfig(block_size=32 * MB, num_reducers=2)
    api_traces = run_capture_campaign("grep", SIZES, nodes=4, seed=5,
                                      config=config)
    assert [t.meta.seed for t in api_traces] == [derive_seed(5, 0),
                                                derive_seed(5, 1)]
    campaign_traces = capture_campaign("grep", sizes_gb=SIZES, seed=5,
                                       campaign=SMALL)
    assert [t.meta.seed for t in campaign_traces] == [derive_seed(5, 0),
                                                      derive_seed(5, 1)]


# -- determinism: serial vs parallel ------------------------------------------------


@pytest.mark.parametrize("workers", [2, 4])
def test_parallel_campaign_traces_byte_identical_to_serial(tmp_path, workers):
    points = _points()
    serial = CampaignRunner(store=None, workers=1).run(points)
    parallel = CampaignRunner(store=None, workers=workers).run(points)
    for index, ((_, serial_trace), (_, parallel_trace)) in enumerate(
            zip(serial, parallel)):
        a = _trace_jsonl(serial_trace, tmp_path, f"s{index}.jsonl")
        b = _trace_jsonl(parallel_trace, tmp_path, f"p{index}.jsonl")
        assert a == b


def test_simulation_is_independent_of_process_history():
    # The same point simulated twice in one process (no caches) must
    # produce identical output — job ids come from the point's content
    # hash, not from a process-global counter.
    point = _points(sizes=[0.0625])[0]
    first_result, first_trace = point.simulate()
    second_result, second_trace = point.simulate()
    assert first_result.to_dict() == second_result.to_dict()
    assert [f.to_dict() for f in first_trace.flows] == \
        [f.to_dict() for f in second_trace.flows]


# -- warm store ---------------------------------------------------------------------


def test_warm_store_rerun_executes_zero_simulations(tmp_path):
    store = CaptureStore(tmp_path / "store")
    points = _points()
    cold_runner = CampaignRunner(store=store, workers=1)
    cold = cold_runner.run(points)
    assert cold_runner.manifest()["stats"]["simulated"] == len(points)

    warm_runner = CampaignRunner(store=store, workers=1)
    warm = warm_runner.run(points)
    assert warm_runner.manifest()["stats"]["simulated"] == 0
    assert warm_runner.manifest()["stats"]["store_hits"] == len(points)
    for index, ((_, cold_trace), (_, warm_trace)) in enumerate(zip(cold, warm)):
        assert _trace_jsonl(cold_trace, tmp_path, f"c{index}.jsonl") == \
            _trace_jsonl(warm_trace, tmp_path, f"w{index}.jsonl")


def test_runner_preserves_order_and_dedups_within_a_run():
    points = _points(sizes=[0.0625, 0.125, 0.0625])  # duplicate sizes
    # Duplicate *points* need duplicate seeds too:
    points[2] = points[0]
    runner = CampaignRunner(store=None, workers=1)
    outcomes = runner.run(points)
    assert runner.manifest()["stats"]["simulated"] == 2  # the duplicate resolved once
    assert outcomes[0][1].meta.job_id == outcomes[2][1].meta.job_id
    assert outcomes[0][1].meta.input_bytes != outcomes[1][1].meta.input_bytes


# -- campaigns-layer integration ----------------------------------------------------


def test_capture_campaign_parallel_equals_serial(tmp_path):
    serial = capture_campaign("grep", sizes_gb=SIZES, seed=9, campaign=SMALL)
    clear_cache()
    parallel = capture_campaign("grep", sizes_gb=SIZES, seed=9, campaign=SMALL,
                                workers=2)
    for index, (serial_trace, parallel_trace) in enumerate(
            zip(serial, parallel)):
        assert _trace_jsonl(serial_trace, tmp_path, f"cs{index}.jsonl") == \
            _trace_jsonl(parallel_trace, tmp_path, f"cp{index}.jsonl")


def test_capture_uses_store_across_memo_clears(tmp_path, monkeypatch):
    monkeypatch.setenv(STORE_ENV_VAR, str(tmp_path / "store"))
    _, first = capture("grep", 0.0625, seed=4, campaign=SMALL)
    clear_cache()

    def unreachable(self, telemetry=None):
        raise AssertionError("re-simulated a point the store holds")

    monkeypatch.setattr(CapturePoint, "simulate", unreachable)
    _, second = capture("grep", 0.0625, seed=4, campaign=SMALL)
    assert second is not first  # came from disk, not the memo
    assert json.dumps([f.to_dict() for f in first.flows]) == \
        json.dumps([f.to_dict() for f in second.flows])


# -- the bounded memo ---------------------------------------------------------------


def test_memo_is_lru_bounded(monkeypatch, tmp_path):
    memo = _LruMemo(capacity=2)
    monkeypatch.setattr(campaigns, "_MEMO", memo)
    sizes = [0.03125, 0.0625, 0.125]
    traces = capture_campaign("grep", sizes_gb=sizes, seed=1, campaign=SMALL)
    expected = [CampaignRunner().run_point(point)[1]
                for point in _points(sizes=sizes, seed=1)]
    assert [_trace_jsonl(trace, tmp_path, f"m{index}.jsonl")
            for index, trace in enumerate(traces)] == \
        [_trace_jsonl(trace, tmp_path, f"e{index}.jsonl")
         for index, trace in enumerate(expected)]
    stats = memo.stats()
    assert stats["entries"] == 2
    assert stats["capacity"] == 2
    assert stats["evictions"] == 1


def test_memo_lru_evicts_least_recently_used():
    memo = _LruMemo(capacity=2)
    memo.put("a", ("ra", "ta"))
    memo.put("b", ("rb", "tb"))
    assert memo.get("a") == ("ra", "ta")  # refresh a
    memo.put("c", ("rc", "tc"))           # evicts b
    assert memo.get("b") is None
    assert memo.get("a") is not None
    assert memo.get("c") is not None


def _stored(root):
    return list((root / "objects").glob("*/*.jsonl"))


def test_store_is_read_from_the_environment_on_each_call(tmp_path,
                                                         monkeypatch):
    store = tmp_path / "store"
    capture("grep", 0.0625, seed=2, campaign=SMALL)
    assert not store.exists()
    monkeypatch.setenv(STORE_ENV_VAR, str(store))
    clear_cache()
    capture("grep", 0.0625, seed=2, campaign=SMALL)
    assert len(campaigns._MEMO) == 1
    assert len(_stored(store)) == 1


def test_default_workers_positive():
    assert default_workers() >= 1


# -- supervised execution: the PR-4 acceptance scenario -----------------------------


def test_faulty_campaign_completes_quarantines_and_resumes_byte_identical(
        tmp_path):
    """One poisoned point + one SIGKILLed worker + one transient error:
    the campaign completes, quarantines exactly the poison, and a rerun
    against the same store re-simulates zero completed points with
    traces byte-identical to an uninterrupted serial run."""
    from repro.experiments.supervision import (CampaignPointsFailed,
                                               Quarantine, RetryPolicy)
    from tests.test_supervision import (FlakyOncePoint, KillOncePoint,
                                        PoisonPoint)

    # The flaky point goes first so its transient failure is collected
    # (and charged a retry) before the delayed SIGKILL collapses the
    # pool and breaks every in-flight future.
    points = [
        FlakyOncePoint.from_campaign(
            "grep", 0.0625, 901, SMALL,
            {"sentinel": str(tmp_path / "flaky.once")}),
    ] + _points() + [
        KillOncePoint.from_campaign(
            "grep", 0.125, 902, SMALL,
            {"sentinel": str(tmp_path / "kill.once"), "delay": 2.0}),
        PoisonPoint.from_campaign("grep", 0.0625, 903, SMALL),
    ]
    poison_key = points[-1].key()
    store_root = tmp_path / "store"
    quarantine_path = tmp_path / "quarantine.jsonl"

    runner = CampaignRunner(
        store=CaptureStore(store_root), workers=2,
        retry_policy=RetryPolicy(max_attempts=3),
        quarantine=Quarantine(quarantine_path))
    with pytest.raises(CampaignPointsFailed) as excinfo:
        runner.run(points)
    outcomes = excinfo.value.results

    assert [outcome is None for outcome in outcomes] == [False] * 4 + [True]
    assert [failure.key for failure in runner.failures] == [poison_key]
    assert runner.manifest()["stats"]["quarantined"] == 1
    assert runner.manifest()["stats"]["retries"] >= 1        # the transient OSError
    assert runner.manifest()["stats"]["pool_failures"] >= 1  # the SIGKILLed worker
    assert [failure.key for failure in Quarantine.load(quarantine_path)] \
        == [poison_key]

    # Rerun against the same store: every completed point is read back
    # without re-simulating; only the quarantined point is attempted again.
    resumed = CampaignRunner(
        store=CaptureStore(store_root), workers=1,
        retry_policy=RetryPolicy(max_attempts=1))
    with pytest.raises(CampaignPointsFailed) as excinfo:
        resumed.run(points)
    replayed = excinfo.value.results
    assert resumed.manifest()["stats"]["store_hits"] == 4
    assert resumed.manifest()["stats"]["simulated"] == 1
    assert replayed[4] is None

    # Byte-identity against an uninterrupted serial run (the fault
    # sentinels exist now, so the flaky/killer points run clean).
    with pytest.raises(CampaignPointsFailed) as excinfo:
        CampaignRunner(
            store=None, workers=1,
            retry_policy=RetryPolicy(max_attempts=1),
        ).run(points)
    serial = excinfo.value.results
    for index in range(4):
        assert _trace_jsonl(replayed[index][1], tmp_path, f"r{index}.jsonl") \
            == _trace_jsonl(serial[index][1], tmp_path, f"u{index}.jsonl")
