"""CLI surface of the supervision layer: campaign failure summaries,
resuming through --store, and store verify/repair."""

import json

import pytest

from repro.cli import main
from repro.experiments.campaigns import clear_cache
from repro.experiments.runner import CampaignRunner, CapturePoint
from repro.experiments.store import STORE_ENV_VAR

CAMPAIGN_ARGS = ["campaign", "--job", "grep", "--sizes-gb", "0.0625,0.125",
                 "--nodes", "4", "--hosts-per-rack", "2"]


@pytest.fixture(autouse=True)
def isolated_caches(monkeypatch):
    monkeypatch.delenv(STORE_ENV_VAR, raising=False)
    clear_cache()
    yield
    clear_cache()


def test_campaign_store_rerun_simulates_nothing(tmp_path, capsys):
    store = tmp_path / "store"
    assert main(CAMPAIGN_ARGS + ["--store", str(store)]) == 0
    assert len(list((store / "objects").glob("*/*.jsonl"))) == 2
    capsys.readouterr()

    assert main(CAMPAIGN_ARGS + ["--store", str(store)]) == 0
    out = capsys.readouterr().out
    assert "0 simulated" in out
    assert "2 store hit(s)" in out


def test_campaign_supervision_note_reports_pool_failures(monkeypatch, capsys):
    """A run whose only supervision event is a pool collapse still
    prints the supervision note."""
    real = CampaignRunner.run

    def collapsed_once(self, points):
        outcomes = real(self, points)
        self._count("pool_failures")
        return outcomes

    monkeypatch.setattr(CampaignRunner, "run", collapsed_once)
    assert main(CAMPAIGN_ARGS) == 0
    out = capsys.readouterr().out
    assert ("supervision: 0 retrie(s), 0 deadline kill(s), "
            "1 pool failure(s)") in out


def test_campaign_help_has_no_journal_flags(capsys):
    with pytest.raises(SystemExit):
        main(["campaign", "--help"])
    out = capsys.readouterr().out
    assert "--store" in out
    assert "--journal" not in out and "--resume" not in out


def test_campaign_rejects_zero_retries(capsys):
    assert main(CAMPAIGN_ARGS + ["--retries", "0"]) == 2
    assert "--retries" in capsys.readouterr().out


def test_damaged_quarantine_sidecar_exits_2_and_is_kept(tmp_path, capsys):
    store, pipeline = tmp_path / "store", tmp_path / "pl"
    for sidecar in (store / "quarantine.jsonl",
                    pipeline / "quarantine.jsonl"):
        sidecar.parent.mkdir(parents=True)
        sidecar.write_text('{"key": "k1", "job"\n')  # torn line
    assert main(CAMPAIGN_ARGS + ["--store", str(store)]) == 2
    assert main(["pipeline", "run", "--dir", str(pipeline), "--job", "grep",
                 "--sizes-gb", "0.0625,0.125"]) == 2
    out = capsys.readouterr().out
    assert out.count("damaged quarantine sidecar") == 2
    assert "quarantine.jsonl: line 1" in out
    assert not (store / "objects").exists()  # nothing ran
    for sidecar in (store / "quarantine.jsonl",
                    pipeline / "quarantine.jsonl"):
        assert sidecar.read_text() == '{"key": "k1", "job"\n'


def test_campaign_failure_exits_nonzero_with_readable_summary(
        tmp_path, monkeypatch, capsys):
    real = CapturePoint.simulate

    def poisoned(self, telemetry=None):
        if self.input_gb == 0.125:
            raise ValueError("injected poison")
        return real(self, telemetry)

    monkeypatch.setattr(CapturePoint, "simulate", poisoned)
    store = tmp_path / "store"
    code = main(CAMPAIGN_ARGS + ["--store", str(store)])
    out = capsys.readouterr().out

    assert code == 1
    # Per-point summary, not a raw traceback dump.
    assert "Traceback" not in out
    assert "quarantined" in out
    assert "ValueError" in out
    assert "injected poison" in out
    # The healthy point still resolved and was stored.
    assert "0.062" in out
    assert len(list((store / "objects").glob("*/*.jsonl"))) == 1
    assert f"--store {store}" in out
    # The quarantine sidecar defaults into the store.
    sidecar = store / "quarantine.jsonl"
    assert sidecar.exists()
    record = json.loads(sidecar.read_text().splitlines()[0])
    assert record["job"] == "grep"
    assert record["input_gb"] == 0.125
    assert str(sidecar) in out


def test_store_verify_and_repair_cycle(tmp_path, capsys):
    store_dir = tmp_path / "store"
    trace = tmp_path / "trace.jsonl"
    assert main(["capture", "--job", "grep", "--input-gb", "0.0625",
                 "--nodes", "4", "--seed", "3", "-o", str(trace),
                 "--store", str(store_dir)]) == 0
    assert main(["store", "verify", "--store", str(store_dir)]) == 0
    capsys.readouterr()

    entry = next((store_dir / "objects").glob("*/*.jsonl"))
    entry.write_text("garbage")
    assert main(["store", "verify", "--store", str(store_dir)]) == 1
    assert "corrupt" in capsys.readouterr().out

    assert main(["store", "repair", "--store", str(store_dir)]) == 0
    out = capsys.readouterr().out
    assert "quarantined" in out
    assert (store_dir / "quarantine" / entry.name).exists()
    assert main(["store", "verify", "--store", str(store_dir)]) == 0
