"""Supervision layer: classification, retries, quarantine, deadline
watchdog, and graceful pool degradation."""

import os
import signal
import time
from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

import pytest

from repro.experiments.campaigns import CampaignConfig
from repro.experiments.runner import CampaignRunner, CapturePoint, derive_seed
from repro.experiments.supervision import (
    DEADLINE,
    DETERMINISTIC,
    TRANSIENT,
    AttemptLedger,
    CampaignPointsFailed,
    DeadlineExpired,
    FailureFingerprint,
    PointFailure,
    Quarantine,
    RetryPolicy,
    classify_failure,
    terminate_workers,
)

SMALL = CampaignConfig(nodes=4, hosts_per_rack=2)

FAST_RETRIES = RetryPolicy(max_attempts=3, base_delay=0.01, max_delay=0.05)



def _point(seed=3, job="grep", input_gb=0.0625, job_kwargs=None):
    return CapturePoint.from_campaign(job, input_gb, seed, SMALL, job_kwargs)


def _clean_twin(point):
    """The same simulation without the fault-trigger kwargs."""
    return CapturePoint(job=point.job, input_gb=point.input_gb,
                        seed=point.seed, cluster_spec=point.cluster_spec,
                        hadoop_config=point.hadoop_config, job_kwargs=(),
                        key_config=point.key_config)


class PoisonPoint(CapturePoint):
    """Deterministically raises on every attempt."""

    def simulate(self, telemetry=None):
        raise ValueError("poisoned point")


class FlakyOncePoint(CapturePoint):
    """Raises a transient OSError on first contact, then runs clean.

    The sentinel file shares "already failed once" state across
    processes (and with the test), like a worker that crashed once.
    """

    def simulate(self, telemetry=None):
        sentinel = Path(dict(self.job_kwargs)["sentinel"])
        if not sentinel.exists():
            sentinel.write_text("tripped")
            raise OSError("transient worker glitch")
        return _clean_twin(self).simulate(telemetry)


class HangOncePoint(CapturePoint):
    """Hangs (past any test deadline) on first contact, then runs clean."""

    def simulate(self, telemetry=None):
        sentinel = Path(dict(self.job_kwargs)["sentinel"])
        if not sentinel.exists():
            sentinel.write_text("hung")
            time.sleep(600)
        return _clean_twin(self).simulate(telemetry)


class KillOncePoint(CapturePoint):
    """SIGKILLs its worker process on first contact, then runs clean.

    An optional ``delay`` kwarg postpones the kill, letting tests
    sequence the pool collapse after other same-round failures have
    been collected (the collapse breaks every in-flight future, so an
    uncollected point failure would be absorbed as collateral).
    """

    def simulate(self, telemetry=None):
        kwargs = dict(self.job_kwargs)
        sentinel = Path(kwargs["sentinel"])
        if not sentinel.exists():
            sentinel.write_text("killed")
            time.sleep(float(kwargs.get("delay", 0.0)))
            os.kill(os.getpid(), signal.SIGKILL)
        return _clean_twin(self).simulate(telemetry)


# -- failure classification ---------------------------------------------------------


def test_classification_sorts_worker_vs_simulation_failures():
    assert classify_failure(BrokenProcessPool("pool died")) == TRANSIENT
    assert classify_failure(OSError("broken pipe")) == TRANSIENT
    assert classify_failure(MemoryError()) == TRANSIENT
    assert classify_failure(EOFError()) == TRANSIENT
    assert classify_failure(ValueError("bad config")) == DETERMINISTIC
    assert classify_failure(ZeroDivisionError()) == DETERMINISTIC
    assert classify_failure(DeadlineExpired("too slow")) == DEADLINE


def _boom():
    raise ValueError("boom")


def test_fingerprint_ignores_call_site_line_numbers():
    fingerprints = []
    # Two textually identical call sites on different line numbers:
    # the fingerprints must still hash equal.
    try:
        _boom()
    except ValueError as exc:
        fingerprints.append(FailureFingerprint.from_exception(exc))
    try:
        _boom()
    except ValueError as exc:
        fingerprints.append(FailureFingerprint.from_exception(exc))
    assert fingerprints[0] == fingerprints[1]
    assert fingerprints[0].classification == DETERMINISTIC
    assert fingerprints[0].exception_type == "ValueError"


def test_fingerprint_distinguishes_different_crashes():
    def make(exc):
        try:
            raise exc
        except Exception as caught:
            return FailureFingerprint.from_exception(caught)

    a = make(ValueError("boom"))
    b = make(KeyError("boom"))
    assert a.traceback_sha256 != b.traceback_sha256


# -- retry policy -------------------------------------------------------------------


def test_retry_policy_budget_and_determinism_rules():
    policy = RetryPolicy(max_attempts=3)
    assert policy.should_retry(TRANSIENT, 1)
    assert policy.should_retry(DEADLINE, 2)
    assert not policy.should_retry(TRANSIENT, 3)  # budget exhausted
    assert not policy.should_retry(DETERMINISTIC, 1)  # pure function
    assert RetryPolicy(retry_deterministic=True).should_retry(DETERMINISTIC, 1)


def test_retry_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(deadline_s=0)


def test_backoff_is_deterministic_bounded_and_growing():
    policy = RetryPolicy(base_delay=0.1, backoff=2.0, max_delay=1.0,
                         jitter=0.5)
    first = policy.delay("key-a", 1)
    assert first == policy.delay("key-a", 1)  # no random in the control path
    assert 0.1 <= first <= 0.15
    assert policy.delay("key-a", 2) > first
    assert policy.delay("key-a", 50) == 1.0  # capped
    assert policy.delay("key-b", 1) != first  # jitter varies per key
    assert RetryPolicy(base_delay=0.0).delay("key-a", 1) == 0.0


def test_attempt_ledger_counts_fingerprints_and_decides():
    policy = RetryPolicy(max_attempts=2, base_delay=0.1)
    ledger = AttemptLedger("key-a", policy)
    assert ledger.charge(OSError("worker lost")) == policy.delay("key-a", 1)
    assert ledger.charge(OSError("worker lost")) is None  # budget spent
    assert ledger.attempts == 2
    assert [f.classification for f in ledger.fingerprints] == [TRANSIENT] * 2

    poisoned = AttemptLedger("key-b", policy)
    assert poisoned.charge(ValueError("bad config")) is None  # deterministic
    failure = poisoned.failure("grep", 0.5, 7)
    assert (failure.key, failure.job, failure.input_gb, failure.seed,
            failure.attempts) == ("key-b", "grep", 0.5, 7, 1)
    assert failure.fingerprints[0].exception_type == "ValueError"


def test_terminate_workers_breaks_a_busy_pool():
    pool = ProcessPoolExecutor(max_workers=1, mp_context=get_context("spawn"))
    future = pool.submit(time.sleep, 30)
    time.sleep(0.5)  # let the worker pick the task up
    terminate_workers(pool)
    with pytest.raises(BrokenProcessPool):
        future.result(timeout=30)
    pool.shutdown(wait=True)


# -- quarantine sidecar -------------------------------------------------------------


def _failure(key="k1"):
    fingerprint = FailureFingerprint(exception_type="ValueError",
                                     message="boom", traceback_sha256="ab" * 32,
                                     classification=DETERMINISTIC)
    return PointFailure(key=key, job="grep", input_gb=0.0625, seed=7,
                        attempts=1, fingerprints=[fingerprint])


def test_quarantine_sidecar_roundtrips_and_tolerates_torn_tail(tmp_path):
    path = tmp_path / "quarantine.jsonl"
    quarantine = Quarantine(path)
    quarantine.record(_failure("k1"))
    quarantine.record(_failure("k2"))
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"key": "k3", "job"')  # torn write mid-crash

    loaded = Quarantine.load(path)
    assert [failure.key for failure in loaded] == ["k1", "k2"]
    assert loaded[0].fingerprints[0].exception_type == "ValueError"
    assert len(quarantine) == 2


def test_quarantine_without_path_is_memory_only(tmp_path):
    quarantine = Quarantine(None)
    quarantine.record(_failure())
    assert len(quarantine) == 1
    assert Quarantine.load(tmp_path / "missing.jsonl") == []


def test_quarantine_dedupes_repeat_fingerprints_across_cycles(tmp_path):
    path = tmp_path / "quarantine.jsonl"
    Quarantine(path).record(_failure("k1"))
    # A later resume cycle opens the sidecar fresh and hits the same
    # poison point with the same crash signature: one line, counted.
    survivor = Quarantine(path)
    known = survivor.record(_failure("k1"))
    assert known.occurrences == 2
    assert known.attempts == 2
    assert len(survivor) == 1

    loaded = Quarantine.load(path)
    assert len(loaded) == 1
    assert loaded[0].occurrences == 2
    assert "seen 2x" in loaded[0].describe()


def test_quarantine_keeps_distinct_crash_signatures_apart(tmp_path):
    path = tmp_path / "quarantine.jsonl"
    quarantine = Quarantine(path)
    quarantine.record(_failure("k1"))

    different = _failure("k1")
    different.fingerprints[0] = FailureFingerprint(
        exception_type="OSError", message="io",
        traceback_sha256="cd" * 32, classification=DETERMINISTIC)
    quarantine.record(different)
    loaded = Quarantine.load(path)
    assert len(loaded) == 2
    assert all(failure.occurrences == 1 for failure in loaded)


# -- supervised serial execution ----------------------------------------------------


def test_transient_failure_is_retried_in_place(tmp_path):
    flaky = FlakyOncePoint.from_campaign(
        "grep", 0.0625, 21, SMALL, {"sentinel": str(tmp_path / "once")})
    runner = CampaignRunner(store=None, workers=1, retry_policy=FAST_RETRIES)
    (result, trace), = runner.run([flaky])
    assert trace.flow_count() > 0
    assert runner.manifest()["stats"]["retries"] == 1
    assert runner.manifest()["stats"]["quarantined"] == 0
    assert not runner.failures


def test_poison_point_quarantines_and_campaign_completes(tmp_path):
    quarantine_path = tmp_path / "quarantine.jsonl"
    healthy = _point(seed=22)
    poison = PoisonPoint.from_campaign("grep", 0.0625, 23, SMALL)
    runner = CampaignRunner(store=None, workers=1, retry_policy=FAST_RETRIES,
                            quarantine=Quarantine(quarantine_path),
                            strict=False)
    outcomes = runner.run([healthy, poison])
    assert outcomes[0] is not None
    assert outcomes[1] is None
    assert runner.manifest()["stats"]["quarantined"] == 1
    # Deterministic errors are not retried: one attempt, no backoff.
    assert runner.manifest()["stats"]["retries"] == 0
    assert runner.failures[0].attempts == 1
    assert runner.failures[0].fingerprints[0].classification == DETERMINISTIC
    loaded = Quarantine.load(quarantine_path)
    assert [failure.key for failure in loaded] == [poison.key()]
    manifest = runner.manifest()
    assert manifest["quarantined"][0]["job"] == "grep"


def test_strict_run_raises_after_completing_everything_else():
    healthy = _point(seed=24)
    poison = PoisonPoint.from_campaign("grep", 0.0625, 25, SMALL)
    runner = CampaignRunner(store=None, workers=1, retry_policy=FAST_RETRIES,
                            strict=True)
    with pytest.raises(CampaignPointsFailed) as excinfo:
        runner.run([healthy, poison])
    assert excinfo.value.results[0] is not None  # partial results carried
    assert [failure.seed for failure in excinfo.value.failures] == [25]
    assert "poisoned point" in str(excinfo.value)


# -- deadline watchdog and pool degradation -----------------------------------------


def test_deadline_watchdog_kills_hung_point_and_retry_succeeds(tmp_path):
    hang = HangOncePoint.from_campaign(
        "grep", 0.0625, 31, SMALL, {"sentinel": str(tmp_path / "hang.once")})
    runner = CampaignRunner(
        store=None, workers=1,
        retry_policy=RetryPolicy(max_attempts=3, base_delay=0.01,
                                 deadline_s=3.0))
    (result, trace), = runner.run([hang])
    assert trace.flow_count() > 0
    assert runner.manifest()["stats"]["deadline_kills"] >= 1
    assert runner.manifest()["stats"]["retries"] >= 1
    assert runner.manifest()["stats"]["quarantined"] == 0


def test_repeated_pool_collapse_degrades_to_serial(tmp_path):
    kill = KillOncePoint.from_campaign(
        "grep", 0.0625, 32, SMALL, {"sentinel": str(tmp_path / "kill.once")})
    healthy = _point(seed=33)
    runner = CampaignRunner(store=None, workers=2, retry_policy=FAST_RETRIES,
                            pool_failure_limit=1)
    outcomes = runner.run([healthy, kill])
    assert all(outcome is not None for outcome in outcomes)
    assert runner.manifest()["stats"]["pool_failures"] >= 1
    assert runner.manifest()["stats"]["degraded_serial"] >= 1
    assert not runner.failures
