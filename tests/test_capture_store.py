"""Capture store: addressing, atomicity, robustness to bad entries."""

import json
import os

import pytest

from repro.experiments import store as store_mod
from repro.experiments.campaigns import CampaignConfig
from repro.experiments.runner import CampaignRunner, CapturePoint
from repro.experiments.store import (
    STORE_ENV_VAR,
    TRACE_FORMAT_VERSION,
    CaptureStore,
    canonical_json,
    key_hash,
    store_from_env,
)

SMALL = CampaignConfig(nodes=4, hosts_per_rack=2)


def _point(job="grep", gb=0.0625, seed=11, **job_kwargs):
    return CapturePoint.from_campaign(job, gb, seed, SMALL, job_kwargs)


@pytest.fixture
def populated(tmp_path):
    """A store holding one simulated point; returns (store, point, entry)."""
    store = CaptureStore(tmp_path / "store")
    point = _point()
    entry = CampaignRunner(store=store, workers=1).run_point(point)
    return store, point, entry


# -- keying -------------------------------------------------------------------------


def test_key_dict_is_canonical_and_stable():
    a = _point(num_reducers=2, iterations=3)
    b = _point(iterations=3, num_reducers=2)  # kwargs in another order
    assert a.key_dict() == b.key_dict()
    assert a.key() == b.key()
    assert a.key() == key_hash(a.key_dict())


def test_key_distinguishes_every_axis():
    base = _point()
    assert _point(gb=0.125).key() != base.key()
    assert _point(seed=12).key() != base.key()
    assert _point(job="teragen").key() != base.key()
    assert _point(num_reducers=2).key() != base.key()
    other_campaign = CapturePoint.from_campaign(
        "grep", 0.0625, 11, CampaignConfig(nodes=8, hosts_per_rack=2))
    assert other_campaign.key() != base.key()


def test_key_includes_format_version():
    assert _point().key_dict()["format"] == TRACE_FORMAT_VERSION


def test_canonical_json_is_order_insensitive():
    assert canonical_json({"b": 1, "a": {"d": 2, "c": 3}}) == \
        canonical_json({"a": {"c": 3, "d": 2}, "b": 1})


# -- round trip ---------------------------------------------------------------------


def test_store_roundtrip_preserves_result_and_trace(populated):
    store, point, (result, trace) = populated
    loaded = store.get(point.key_dict())
    assert loaded is not None
    loaded_result, loaded_trace = loaded
    assert loaded_result.to_dict() == result.to_dict()
    assert loaded_trace.meta.to_dict() == trace.meta.to_dict()
    assert [f.to_dict() for f in loaded_trace.flows] == \
        [f.to_dict() for f in trace.flows]


def test_entry_file_embeds_trace_jsonl_verbatim(populated, tmp_path):
    store, point, (_, trace) = populated
    path = store.entry_path(point.key())
    lines = path.read_text().splitlines()
    reference = tmp_path / "ref.jsonl"
    trace.to_jsonl(reference)
    assert lines[1:] == reference.read_text().splitlines()


def test_miss_on_unknown_key(tmp_path):
    store = CaptureStore(tmp_path / "store")
    assert store.get(_point().key_dict()) is None
    assert store.registry.value("store.misses") == 1


# -- robustness ---------------------------------------------------------------------


def test_truncated_entry_falls_back_to_resimulation(populated):
    store, point, (_, trace) = populated
    path = store.entry_path(point.key())
    path.write_text(path.read_text()[: len(path.read_text()) // 3])

    assert store.get(point.key_dict()) is None
    assert store.registry.value("store.corrupt") == 1

    runner = CampaignRunner(store=store, workers=1)
    _, again = runner.run_point(point)
    assert runner.telemetry.registry.value("campaign.simulated") == 1  # re-simulated, did not raise
    assert [f.to_dict() for f in again.flows] == \
        [f.to_dict() for f in trace.flows]
    assert store.get(point.key_dict()) is not None  # overwrote the bad entry


def test_garbage_entry_is_a_miss_not_an_error(populated):
    store, point, _ = populated
    store.entry_path(point.key()).write_text("not json at all\n{]")
    assert store.get(point.key_dict()) is None
    assert store.registry.value("store.corrupt") == 1


def test_line_holding_two_flows_is_corrupt(populated):
    store, point, _ = populated
    path = store.entry_path(point.key())
    lines = path.read_text().splitlines()
    assert len(lines) >= 4  # header, meta, at least two flows
    merged = lines[:2] + [lines[2] + ", " + lines[3]] + lines[4:]
    path.write_text("\n".join(merged) + "\n")
    assert store.get(point.key_dict()) is None
    assert store.registry.value("store.corrupt") == 1
    assert store.verify().corrupt == 1


def test_stale_format_version_falls_back_to_resimulation(populated):
    store, point, _ = populated
    path = store.entry_path(point.key())
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    header["store"]["format"] = TRACE_FORMAT_VERSION - 1
    path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")

    assert store.get(point.key_dict()) is None
    assert store.registry.value("store.stale") == 1
    assert store.registry.value("store.corrupt") == 0

    runner = CampaignRunner(store=store, workers=1)
    runner.run_point(point)
    assert runner.telemetry.registry.value("campaign.simulated") == 1


def test_mismatched_result_and_trace_is_corrupt(populated):
    store, point, _ = populated
    path = store.entry_path(point.key())
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    header["result"]["job_id"] = "someone_else"
    path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    assert store.get(point.key_dict()) is None
    assert store.registry.value("store.corrupt") == 1


def test_misfiled_entry_is_a_miss_and_verify_agrees(populated):
    """A valid entry copied to another point's address answers for
    neither: ``get`` counts it corrupt (a miss), as ``verify`` flags it
    mismatched."""
    store, point, _ = populated
    other = _point(job="wordcount")
    misfiled = store.entry_path(other.key())
    misfiled.parent.mkdir(parents=True, exist_ok=True)
    misfiled.write_text(store.entry_path(point.key()).read_text())
    misses = store.registry.value("store.misses")  # the fixture's cold run

    assert store.get(other.key_dict()) is None
    assert store.registry.value("store.corrupt") == 1
    assert store.registry.value("store.misses") == misses + 1
    assert store.registry.value("store.hits") == 0
    report = store.verify()
    assert (report.ok, report.mismatched, report.corrupt) == (1, 1, 0)


def test_writes_leave_no_tmp_droppings(populated):
    store, point, _ = populated
    parent = store.entry_path(point.key()).parent
    assert [p.name for p in parent.iterdir() if p.suffix == ".tmp"] == []


# -- maintenance --------------------------------------------------------------------


def test_clear_invalidates_everything(populated):
    store, point, _ = populated
    assert store.entry_count() == 1
    assert store.size_bytes() > 0
    assert store.clear() == 1
    assert store.entry_count() == 0
    assert store.get(point.key_dict()) is None


def test_counters_track_traffic(populated):
    store, point, _ = populated
    store.get(point.key_dict())
    value = store.registry.value
    assert value("store.writes") == 1
    assert value("store.hits") == 1
    assert value("store.bytes_written") > 0
    assert value("store.bytes_read") == value("store.bytes_written")


# -- scrub: verify / repair ---------------------------------------------------------


def test_verify_clean_store(populated):
    store, _, _ = populated
    report = store.verify()
    assert report.clean
    assert report.scanned == 1 and report.ok == 1
    assert report.bytes_scanned > 0
    assert store.registry.value("store.scrub.ok") == 1


def test_verify_finds_every_problem_class(populated, tmp_path):
    store, point, _ = populated
    # A second good entry to corrupt, plus the original left intact.
    other = _point(seed=99)
    CampaignRunner(store=store, workers=1).run_point(other)
    good_path = store.entry_path(point.key())

    # corrupt: truncate the second entry.
    bad_path = store.entry_path(other.key())
    bad_path.write_text(bad_path.read_text()[:50])
    # stale: a valid entry under an old format version.
    stale_lines = good_path.read_text().splitlines()
    header = json.loads(stale_lines[0])
    header["store"]["format"] = TRACE_FORMAT_VERSION - 1
    stale_path = bad_path.parent / ("0" * 64 + ".jsonl")
    stale_path.write_text("\n".join([json.dumps(header)] + stale_lines[1:])
                          + "\n")
    # mismatched: a byte-valid entry filed under the wrong address.
    wrong_path = bad_path.parent / ("f" * 64 + ".jsonl")
    wrong_path.write_text(good_path.read_text())
    # tmp dropping: a writer that died mid-publish.
    (bad_path.parent / ".deadbeef.tmp").write_text("partial")

    report = store.verify()
    assert not report.clean
    assert report.scanned == 4 and report.ok == 1
    assert report.corrupt == 1
    assert report.stale == 1
    assert report.mismatched == 1
    assert report.tmp_files == 1
    assert report.quarantined == 0  # verify never moves anything
    assert bad_path.exists()


def test_repair_quarantines_bad_entries_and_removes_tmp(populated):
    store, point, _ = populated
    bad_path = store.entry_path(point.key())
    bad_path.write_text("garbage")
    tmp_file = bad_path.parent / ".dead.tmp"
    tmp_file.write_text("partial")

    report = store.verify(repair=True)
    assert report.repaired
    assert report.quarantined == 1
    assert report.removed_tmp == 1
    assert not bad_path.exists()
    assert not tmp_file.exists()
    assert (store.quarantine_dir / bad_path.name).read_text() == "garbage"
    # The store is clean afterwards; the entry is simply a miss now.
    assert store.verify().clean
    assert store.get(point.key_dict()) is None


def test_encode_decode_entry_roundtrip(populated):
    store, point, (result, trace) = populated
    text = store_mod.encode_entry(point.key_dict(), result, trace)
    loaded_result, loaded_trace = store_mod.decode_entry(text)
    assert loaded_result.to_dict() == result.to_dict()
    assert [f.to_dict() for f in loaded_trace.flows] == \
        [f.to_dict() for f in trace.flows]
    assert store_mod.entry_key(text) == point.key_dict()


# -- environment wiring -------------------------------------------------------------


def test_store_from_env(tmp_path):
    assert store_from_env({}) is None
    assert store_from_env({STORE_ENV_VAR: ""}) is None
    store = store_from_env({STORE_ENV_VAR: str(tmp_path / "s")})
    assert isinstance(store, CaptureStore)
    assert store.root == tmp_path / "s"


# -- cross-backend isolation --------------------------------------------------------


def test_store_isolates_backends(tmp_path):
    """One store, one workload, two backends: two separate entries.

    A fluid capture must never satisfy an analytic lookup (or vice
    versa) — their flow *timings* differ even when the populations
    match — so the backend is a first-class key axis.
    """
    store = CaptureStore(tmp_path / "store")
    fluid = CapturePoint.from_campaign(
        "grep", 0.0625, 11, CampaignConfig(nodes=4, hosts_per_rack=2,
                                           backend="fluid"))
    analytic = CapturePoint.from_campaign(
        "grep", 0.0625, 11, CampaignConfig(nodes=4, hosts_per_rack=2,
                                           backend="analytic"))
    assert fluid.key() != analytic.key()

    runner = CampaignRunner(store=store, workers=1)
    runner.run_point(fluid)
    assert store.get(fluid.key_dict()) is not None
    assert store.get(analytic.key_dict()) is None  # no cross-pollination

    runner.run_point(analytic)
    assert store.get(analytic.key_dict()) is not None
    # Both entries coexist under the same logical workload.
    assert fluid.logical_key() == analytic.logical_key()


def test_store_isolates_placement_modes(tmp_path):
    store = CaptureStore(tmp_path / "store")
    grant = CapturePoint.from_campaign(
        "grep", 0.0625, 11, CampaignConfig(nodes=4, hosts_per_rack=2))
    keyed = CapturePoint.from_campaign(
        "grep", 0.0625, 11, CampaignConfig(nodes=4, hosts_per_rack=2,
                                           placement_mode="keyed"))
    assert grant.key() != keyed.key()
    CampaignRunner(store=store, workers=1).run_point(grant)
    assert store.get(keyed.key_dict()) is None
