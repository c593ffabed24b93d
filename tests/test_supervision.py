"""Supervision layer: classification, retries, quarantine, deadline
watchdog, and worker deaths charged to the one attempt budget."""

import json
import os
import pickle
import signal
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

import pytest

from repro.experiments import supervision
from repro.experiments.campaigns import CampaignConfig
from repro.experiments.runner import CampaignRunner, CapturePoint
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
    SupervisedExecutor,
    classify_failure,
    terminate_workers,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import Telemetry

SMALL = CampaignConfig(nodes=4, hosts_per_rack=2)

ROOT = Path(__file__).resolve().parents[1]

FAST_RETRIES = RetryPolicy(max_attempts=3)


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


def test_retry_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(deadline_s=0)


def test_attempt_ledger_counts_fingerprints_and_decides():
    policy = RetryPolicy(max_attempts=2)
    ledger = AttemptLedger("key-a", policy)
    assert ledger.charge(OSError("worker lost")) is True
    assert ledger.charge(OSError("worker lost")) is False  # budget spent
    assert ledger.attempts == 2
    assert [f.classification for f in ledger.fingerprints] == [TRANSIENT] * 2

    poisoned = AttemptLedger("key-b", policy)
    assert poisoned.charge(ValueError("bad config")) is False  # deterministic
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


def test_quarantine_sidecar_roundtrips(tmp_path):
    path = tmp_path / "quarantine.jsonl"
    quarantine = Quarantine(path)
    quarantine.record(_failure("k1"))
    quarantine.record(_failure("k2"))

    loaded = Quarantine.load(path)
    assert [failure.to_dict() for failure in loaded] \
        == [_failure("k1").to_dict(), _failure("k2").to_dict()]
    assert len(quarantine) == 2
    assert len(Quarantine(path)) == 2
    assert Quarantine.load(tmp_path / "missing.jsonl") == []


def test_quarantine_torn_line_raises_and_leaves_the_file(tmp_path):
    path = tmp_path / "quarantine.jsonl"
    Quarantine(path).record(_failure("k1"))
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"key": "k3", "job"\n')  # torn write mid-crash
    damaged = path.read_bytes()

    with pytest.raises(ValueError, match=rf"{path.name}: line 2"):
        Quarantine.load(path)
    with pytest.raises(ValueError, match="line 2"):
        Quarantine(path)  # so no record can republish over the damage
    assert path.read_bytes() == damaged


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


def test_campaign_failure_is_retryable_when_a_point_was():
    # A campaign run as one task (a pipeline capture node) fails with
    # CampaignPointsFailed; retrying the task helps only when some
    # point failed for a retryable reason.
    poisoned = CampaignPointsFailed([_failure("k1")], [None])
    assert classify_failure(poisoned) == DETERMINISTIC
    flaky = _failure("k2")
    flaky.fingerprints[0] = FailureFingerprint(
        exception_type="OSError", message="glitch",
        traceback_sha256="cd" * 32, classification=TRANSIENT)
    mixed = CampaignPointsFailed([_failure("k1"), flaky], [None, None])
    assert classify_failure(mixed) == TRANSIENT
    # It crosses a process boundary intact (a capture node may run in
    # a spawn worker).
    clone = pickle.loads(pickle.dumps(mixed))
    assert [failure.key for failure in clone.failures] == ["k1", "k2"]
    assert clone.results == [None, None]
    assert str(clone) == str(mixed)


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
                            quarantine=Quarantine(quarantine_path))
    with pytest.raises(CampaignPointsFailed) as excinfo:
        runner.run([healthy, poison])
    outcomes = excinfo.value.results
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
    runner = CampaignRunner(store=None, workers=1, retry_policy=FAST_RETRIES)
    with pytest.raises(CampaignPointsFailed) as excinfo:
        runner.run([healthy, poison])
    assert excinfo.value.results[0] is not None  # partial results carried
    assert [failure.seed for failure in excinfo.value.failures] == [25]
    assert "poisoned point" in str(excinfo.value)


# -- deadline watchdog and worker deaths --------------------------------------------


def test_deadline_watchdog_kills_hung_point_and_retry_succeeds(tmp_path):
    hang = HangOncePoint.from_campaign(
        "grep", 0.0625, 31, SMALL, {"sentinel": str(tmp_path / "hang.once")})
    runner = CampaignRunner(
        store=None, workers=1,
        retry_policy=RetryPolicy(max_attempts=3, deadline_s=3.0))
    (result, trace), = runner.run([hang])
    assert trace.flow_count() > 0
    assert runner.manifest()["stats"]["deadline_kills"] >= 1
    assert runner.manifest()["stats"]["retries"] >= 1
    assert runner.manifest()["stats"]["quarantined"] == 0


def _sleep_task(seconds, telemetry):
    time.sleep(seconds)
    return seconds


def test_deadline_clock_starts_when_the_task_starts():
    """Queued tasks are not charged for the wait behind other tasks (or
    for worker start-up): one worker runs three 0.5 s tasks in turn
    under a 1.2 s deadline, above each task's run time but below the
    sum, and none is killed."""
    registry = MetricsRegistry()
    executor = SupervisedExecutor(
        RetryPolicy(max_attempts=1, deadline_s=1.2), registry,
        prefix="test", workers=1)
    done = []
    failed = executor.run(
        _sleep_task, [(f"task-{index}", 0.5) for index in range(3)],
        Telemetry.disabled(), lambda ledger, value: done.append(ledger.key))
    charged = [fingerprint.exception_type for ledger in failed
               for fingerprint in ledger.fingerprints]
    assert "DeadlineExpired" not in charged
    assert not failed
    assert sorted(done) == ["task-0", "task-1", "task-2"]
    assert registry.value("test.deadline_kills") == 0


def test_task_overrunning_its_deadline_between_ticks_is_charged():
    """A task that ends past its deadline but before the watchdog polls
    again is still a deadline failure."""
    executor = SupervisedExecutor(
        RetryPolicy(max_attempts=1, deadline_s=0.001), MetricsRegistry(),
        prefix="test", workers=1)
    done = []
    (ledger,) = executor.run(
        _sleep_task, [("late", 0.02)], Telemetry.disabled(),
        lambda ledger, value: done.append(ledger.key))
    assert not done
    assert ledger.fingerprints[-1].exception_type == "DeadlineExpired"


def _deadline_fingerprint(seconds):
    """Run one 0.5 s-deadline task that sleeps ``seconds``; return its
    single fingerprint and the watchdog's kill count."""
    registry = MetricsRegistry()
    executor = SupervisedExecutor(
        RetryPolicy(max_attempts=1, deadline_s=0.5), registry,
        prefix="test", workers=1)
    (ledger,) = executor.run(_sleep_task, [("hung-task", seconds)],
                             Telemetry.disabled(), lambda ledger, value: None)
    (fingerprint,) = ledger.fingerprints
    return fingerprint, registry.value("test.deadline_kills")


def test_both_deadline_paths_fingerprint_the_same(monkeypatch):
    """A hung task reads as one crash whichever watchdog path caught it,
    so the quarantine does not log it as a new one."""
    # A tick longer than the task: it overruns and finishes unseen.
    monkeypatch.setattr(supervision, "_WATCHDOG_TICK", 30.0)
    overran, overran_kills = _deadline_fingerprint(1.0)
    # The default tick: the watchdog sees it overdue and kills it.
    monkeypatch.setattr(supervision, "_WATCHDOG_TICK", 0.05)
    killed, killed_kills = _deadline_fingerprint(30.0)
    assert (overran_kills, killed_kills) == (0, 1)
    assert overran.exception_type == killed.exception_type == "DeadlineExpired"
    assert overran.message == killed.message
    assert overran.traceback_sha256 == killed.traceback_sha256


def _kill_or_echo(item, telemetry):
    """Executor task: SIGKILL the process running it, or echo ``item``."""
    if item == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    return item


def killer_scenario(workers, deadline_s, healthy):
    """Run one worker-killing task beside ``healthy`` echo tasks under a
    three-attempt budget; summarise the outcome as JSON-ready data."""
    registry = MetricsRegistry()
    executor = SupervisedExecutor(
        RetryPolicy(max_attempts=3, deadline_s=deadline_s), registry,
        prefix="test", workers=workers)
    tasks = [("killer", "kill")] + [(f"healthy-{index}", index)
                                   for index in range(healthy)]
    done = {}
    failed = executor.run(_kill_or_echo, tasks, Telemetry.disabled(),
                          lambda ledger, value: done.update({ledger.key: value}))
    return {"done": done,
            "failed": {ledger.key: [[f.exception_type, f.classification]
                                    for f in ledger.fingerprints]
                       for ledger in failed},
            "pool_failures": registry.value("test.pool_failures")}


_KILLER_CHILD = """
import json, sys
from tests.test_supervision import killer_scenario

print(json.dumps(killer_scenario(*json.loads(sys.argv[1]))))
"""


def _run_killer_scenario(workers, deadline_s, healthy):
    """:func:`killer_scenario` in a child process, so an executor that
    ran the killer in its own process fails this test instead of
    killing pytest."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]))
    child = subprocess.run(
        [sys.executable, "-c", _KILLER_CHILD,
         json.dumps([workers, deadline_s, healthy])],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=240)
    assert child.returncode == 0, (
        f"the executor's own process died (exit {child.returncode}): "
        f"{child.stderr[-2000:]}")
    return json.loads(child.stdout.strip().splitlines()[-1])


def test_worker_killer_is_charged_beside_healthy_tasks():
    """Several tasks in flight when a worker dies: none is charged, each
    then runs alone, and the killer's repeat deaths are its own."""
    report = _run_killer_scenario(workers=2, deadline_s=None, healthy=2)
    assert report["failed"] == {
        "killer": [["BrokenProcessPool", TRANSIENT]] * 3}
    assert report["done"] == {"healthy-0": 0, "healthy-1": 1}
    assert report["pool_failures"] >= 3


def test_lone_worker_killer_under_a_deadline_is_charged():
    """A pipeline node's case: one task, one worker, a deadline that
    never fires; every worker death is charged to the task."""
    report = _run_killer_scenario(workers=1, deadline_s=30.0, healthy=0)
    assert report["failed"] == {
        "killer": [["BrokenProcessPool", TRANSIENT]] * 3}
    assert report["done"] == {}
    assert report["pool_failures"] == 3
