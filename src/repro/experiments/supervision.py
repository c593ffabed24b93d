"""Fault tolerance for campaigns and pipelines: the supervision layer.

A measurement campaign is a long sequence of independent capture
points, and a pipeline a chain of stages over them; both only finish
because the harness tolerates partial failure: a worker OOM-killed by
the kernel, a point that hangs in a pathological configuration, or a
genuinely poisoned point that raises deterministically must not abort
the whole run and discard every in-flight result.  This module is the
one executor both the
:class:`~repro.experiments.runner.CampaignRunner` and the
:class:`~repro.experiments.dag.DAGRunner` run their work on:

* **failure classification** (:func:`classify_failure`) — *transient*
  worker failures (broken pools, pickling/IPC errors, OOM kills) are
  retryable; *deterministic* simulation errors are not (re-running a
  pure function on the same inputs re-raises the same exception);
  *deadline* expiries sit in between (a hang may be load-dependent, so
  they retry like transients).
* **retry policy** (:class:`RetryPolicy`) — the attempt budget and the
  per-task wall-clock deadline.  A retry runs at once.
* **failure fingerprints** (:class:`FailureFingerprint`) — exception
  type + message + a hash of the normalised traceback, so repeated
  failures of the same point are recognisably "the same crash".
* **attempt ledger** (:class:`AttemptLedger`) — the single retry
  decision: count the failed attempt, fingerprint it, ask the policy.
* **the executor** (:class:`SupervisedExecutor`) — runs keyed tasks
  in-process or on one spawn pool, charges every failed attempt to its
  ledger (a worker death included), kills workers that miss the
  deadline, and folds each worker's registry snapshot into the
  caller's registry under the worker's label.
* **quarantine** (:class:`Quarantine`) — a ``quarantine.jsonl`` sidecar
  recording each poisoned task's fingerprints; the run completes with
  an explicit partial-result manifest instead of dying.

Everything here is host-side machinery: it never touches simulated
time, and resolved captures are byte-identical whether a point
succeeded first try, was retried after a worker crash, or was read
back from the store on a rerun (pinned by
``tests/test_campaign_runner.py``).
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import queue
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, wait
from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
from dataclasses import dataclass, field
from multiprocessing import get_context
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.store import write_atomic
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import Telemetry, TelemetryConfig

#: Failure classes.  ``TRANSIENT`` failures are environmental and
#: retryable; ``DETERMINISTIC`` failures repeat on every attempt;
#: ``DEADLINE`` marks watchdog kills of hung points (retried like
#: transients — a hang can be load-dependent).
TRANSIENT = "transient"
DETERMINISTIC = "deterministic"
DEADLINE = "deadline"


class DeadlineExpired(Exception):
    """A task exceeded its wall-clock deadline."""


#: Exception types indicating the *worker* (not the simulation) failed:
#: killed processes, broken pipes to dead children, pickling/IPC
#: trouble, and memory pressure.  ``OSError`` covers fork/spawn
#: failures and transient filesystem trouble on the store path.
_TRANSIENT_TYPES = (BrokenProcessPool, BrokenExecutor, pickle.PickleError,
                    MemoryError, ConnectionError, EOFError, OSError)


def classify_failure(exc: BaseException) -> str:
    """Sort an exception into ``transient``/``deterministic``/``deadline``."""
    if isinstance(exc, DeadlineExpired):
        return DEADLINE
    if isinstance(exc, _TRANSIENT_TYPES):
        return TRANSIENT
    if isinstance(exc, CampaignPointsFailed) and any(
            failure.fingerprints
            and failure.fingerprints[-1].classification != DETERMINISTIC
            for failure in exc.failures):
        # A campaign run as one task (a pipeline capture node) lost a
        # point to a retryable failure: retrying the task may finish it.
        return TRANSIENT
    return DETERMINISTIC


def _traceback_text(exc: BaseException) -> str:
    """The exception's traceback, including any remote (worker) part.

    ``concurrent.futures`` chains the worker-side traceback onto the
    re-raised exception via ``__cause__``; ``format_exception`` walks
    the chain, so worker crashes fingerprint on the *worker's* frames.
    """
    return "".join(traceback.format_exception(type(exc), exc,
                                              exc.__traceback__))


def _normalise_traceback(text: str) -> str:
    """Strip line numbers and memory addresses so equal crashes hash equal."""
    out = []
    for line in text.splitlines():
        if line.lstrip().startswith("File "):
            # '  File "x.py", line 12, in f' -> '  File "x.py", in f'
            parts = [part for part in line.split(", ")
                     if not part.startswith("line ")]
            line = ", ".join(parts)
        out.append(line)
    return "\n".join(out)


@dataclass(frozen=True)
class FailureFingerprint:
    """What failed, compressed to something comparable across attempts."""

    exception_type: str
    message: str
    traceback_sha256: str
    classification: str

    @classmethod
    def from_exception(cls, exc: BaseException) -> "FailureFingerprint":
        text = _normalise_traceback(_traceback_text(exc))
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        return cls(exception_type=type(exc).__name__,
                   message=str(exc)[:500],
                   traceback_sha256=digest,
                   classification=classify_failure(exc))

    def to_dict(self) -> Dict[str, Any]:
        return {"exception_type": self.exception_type,
                "message": self.message,
                "traceback_sha256": self.traceback_sha256,
                "classification": self.classification}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FailureFingerprint":
        return cls(exception_type=data["exception_type"],
                   message=data["message"],
                   traceback_sha256=data["traceback_sha256"],
                   classification=data["classification"])

    def short(self) -> str:
        return (f"{self.exception_type}({self.message!r}) "
                f"[{self.classification}, tb {self.traceback_sha256[:10]}]")


@dataclass(frozen=True)
class RetryPolicy:
    """Attempt budget and per-task deadline for one campaign or pipeline.

    A retry runs at once.  Deterministic failures are never retried:
    re-running a pure function re-raises.
    """

    max_attempts: int = 3
    deadline_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive when set")

    def should_retry(self, classification: str, attempts: int) -> bool:
        """May a point that has already burned ``attempts`` try again?"""
        return (attempts < self.max_attempts
                and classification != DETERMINISTIC)


@dataclass
class AttemptLedger:
    """The failed attempts of one unit of work: a campaign point or a
    pipeline node.  :meth:`charge` is the one place a failure is
    counted, fingerprinted and put to the :class:`RetryPolicy`.
    """

    key: str
    policy: RetryPolicy
    attempts: int = 0
    fingerprints: List[FailureFingerprint] = field(default_factory=list)

    def charge(self, exc: BaseException) -> bool:
        """Charge one failed attempt; may the work try again?

        ``False`` means the budget is spent and the work must be
        quarantined.
        """
        self.attempts += 1
        fingerprint = FailureFingerprint.from_exception(exc)
        self.fingerprints.append(fingerprint)
        return self.policy.should_retry(fingerprint.classification,
                                        self.attempts)

    def failure(self, job: str, input_gb: float = 0.0,
                seed: int = 0) -> "PointFailure":
        return PointFailure(key=self.key, job=job, input_gb=input_gb,
                            seed=seed, attempts=self.attempts,
                            fingerprints=list(self.fingerprints))


def terminate_workers(pool: ProcessPoolExecutor) -> None:
    """Kill every worker process of ``pool`` (breaks it on purpose)."""
    for process in list(getattr(pool, "_processes", {}).values()):
        try:
            process.terminate()
        except Exception:
            pass


#: How the watchdog polls in-flight tasks when a deadline is set
#: (seconds).  Coarse enough to be free, fine enough that a kill lands
#: within a small fraction of any realistic deadline.
_WATCHDOG_TICK = 0.05


#: Worker-side only: where :func:`_run_observed` posts ``(key, start
#: time)`` for the parent's deadline watchdog.  Set by the pool
#: initializer; ``None`` when no deadline is enforced.
_start_queue: Optional[Any] = None


def _install_start_queue(starts: Optional[Any]) -> None:
    """Pool initializer: keep the watchdog's start queue in the worker."""
    global _start_queue
    _start_queue = starts


def _drain_starts(starts: Any, started: Dict[str, float],
                  since: float) -> None:
    """Move posted task starts into ``started``.

    A start before ``since`` is left over from an earlier round (the
    post can arrive after the task's result) and is dropped.
    """
    while True:
        try:
            key, at = starts.get_nowait()
        except queue.Empty:
            return
        if at >= since:
            started[key] = at


def _run_observed(call: Callable[[Any, Telemetry], Any], item: Any,
                  config: TelemetryConfig, key: str,
                  ) -> Tuple[Any, List[Dict[str, Any]], str, float]:
    """Spawn-worker entry point: run one task, ship its registry back.

    The task's deadline clock runs from here, not from its submission:
    pool start-up and queueing behind other tasks are not the task's
    time.  Under a deadline the start is posted for the watchdog, and
    the run time returns with the result, so a task that overran is
    caught even when it finished between two watchdog ticks.

    The worker builds its own telemetry from the picklable ``config``
    (its spans go to the null sink).  That telemetry is fresh per task,
    so its registry snapshot *is* the task's increment; the parent
    merges it once, when the task succeeds — counters sum, gauges land
    under this worker's label.
    """
    began = time.monotonic()
    if _start_queue is not None:
        _start_queue.put((key, began))
    telemetry = config.build()
    value = call(item, telemetry)
    ran = time.monotonic() - began
    return (value, telemetry.registry.snapshot(), f"worker-{os.getpid()}",
            ran)


class SupervisedExecutor:
    """Run keyed tasks under one retry, deadline and pool policy.

    A task is ``(key, item)``; running it means ``call(item,
    telemetry)``, where ``call`` is a module-level function (picklable
    under spawn).  :meth:`run` executes tasks either in-process against
    the caller's telemetry, or on one ``spawn``-context
    :class:`ProcessPoolExecutor` of up to ``workers`` processes — fresh
    interpreters, so fork-safety of the simulator's global state is
    never relied on.  Either way every failed attempt is charged to the
    task's :class:`AttemptLedger` and retried at once while the budget
    lasts, and the supervision actions count on ``registry`` as
    ``<prefix>.retries``, ``<prefix>.deadline_kills`` and
    ``<prefix>.pool_failures``.

    On the pool the parent is the watchdog: a task running longer than
    ``policy.deadline_s`` (timed from when a worker started it) has its
    workers terminated and is charged a :class:`DeadlineExpired`
    attempt; so is one whose result shows it overran between ticks.
    The kill breaks the pool under every other in-flight task, and
    those collateral victims are rescheduled free of charge.  A worker
    that dies underneath (SIGKILL, OOM) breaks the pool too: with one
    task in flight the death is charged to that task as a transient
    :class:`BrokenProcessPool` attempt; with several, none is charged
    and each of them then runs alone, one per round, until it settles,
    so a repeat death names its own cause.  A pool task's registry
    snapshot is merged into ``registry`` when it succeeds.
    """

    def __init__(self, policy: RetryPolicy, registry: MetricsRegistry,
                 prefix: str, workers: int = 1):
        self.policy = policy
        self.workers = max(1, int(workers))
        self._registry = registry
        self._prefix = prefix

    def _count(self, name: str, amount: int = 1) -> None:
        self._registry.counter(f"{self._prefix}.{name}").inc(amount)

    def isolates(self, count: int) -> bool:
        """Would :meth:`run` put ``count`` tasks on the process pool?

        Deadline enforcement needs a killable process, so a deadline
        isolates even a single task.
        """
        return (self.policy.deadline_s is not None
                or (self.workers > 1 and count > 1))

    def run(self, call: Callable[[Any, Telemetry], Any],
            tasks: Sequence[Tuple[str, Any]], telemetry: Telemetry,
            on_done: Callable[[AttemptLedger, Any], None],
            isolate: Optional[bool] = None) -> List[AttemptLedger]:
        """Run every task to success or to an exhausted budget.

        ``on_done(ledger, value)`` fires in this process the moment a
        task succeeds (``ledger.attempts`` failed attempts before it),
        so callers checkpoint as results arrive.  Returns the ledgers of
        the tasks that failed for good, in the order they gave up.
        ``isolate`` overrides :meth:`isolates` (``False`` for tasks that
        cannot cross a process boundary).
        """
        if isolate is None:
            isolate = self.isolates(len(tasks))
        failed: List[AttemptLedger] = []
        if isolate:
            self._run_pool(call, tasks, telemetry, on_done, failed)
        else:
            for key, item in tasks:
                self._settle(call, item, AttemptLedger(key, self.policy),
                             telemetry, on_done, failed)
        return failed

    def _charge(self, ledger: AttemptLedger, exc: BaseException,
                failed: List[AttemptLedger]) -> bool:
        """Charge one failed attempt; may the task try again?"""
        if ledger.charge(exc):
            self._count("retries")
            return True
        failed.append(ledger)
        return False

    def _settle(self, call: Callable[[Any, Telemetry], Any], item: Any,
                ledger: AttemptLedger, telemetry: Telemetry,
                on_done: Callable[[AttemptLedger, Any], None],
                failed: List[AttemptLedger]) -> None:
        """Run one task in-process until it succeeds or gives up."""
        while True:
            try:
                value = call(item, telemetry)
            except Exception as exc:
                if self._charge(ledger, exc, failed):
                    continue
                return
            on_done(ledger, value)
            return

    def _run_pool(self, call: Callable[[Any, Telemetry], Any],
                  tasks: Sequence[Tuple[str, Any]], telemetry: Telemetry,
                  on_done: Callable[[AttemptLedger, Any], None],
                  failed: List[AttemptLedger]) -> None:
        deadline = self.policy.deadline_s
        items = dict(tasks)
        ledgers = {key: AttemptLedger(key, self.policy) for key in items}
        # Unresolved tasks, in task order.
        pending = list(items)
        # Tasks in flight when a worker died under several of them: each
        # runs alone until it settles, so a repeat death is charged to it.
        suspects: set = set()
        config = telemetry.config()
        pool: Optional[ProcessPoolExecutor] = None
        # Workers post task starts here when a deadline is set.  Each
        # pool gets its own queue: a worker killed mid-post can leave a
        # queue's lock held.
        starts: Optional[Any] = None

        def fail(key: str, exc: BaseException) -> None:
            if not self._charge(ledgers[key], exc, failed):
                pending.remove(key)

        def expire(key: str) -> None:
            # One wording, with no measured time in it, for both the
            # watchdog kill and the overran-between-ticks check: the
            # fingerprint hashes the message, so one hung task must
            # read the same whichever path caught it.
            fail(key, DeadlineExpired(
                f"task {key[:12]} exceeded its {deadline}s deadline"))

        try:
            while pending:
                if pool is None:
                    context = get_context("spawn")
                    starts = context.Queue() if deadline is not None else None
                    pool = ProcessPoolExecutor(
                        max_workers=min(self.workers, len(pending)),
                        mp_context=context,
                        initializer=_install_start_queue, initargs=(starts,))
                now = time.monotonic()
                batch = [key for key in pending if key in suspects][:1]
                futures = {pool.submit(_run_observed, call, items[key],
                                       config, key): key
                           for key in batch or pending}
                expired: set = set()
                started: Dict[str, float] = {}
                # Tasks the pool collapsed under (the watchdog killed
                # it, or a worker died), settled once the round is over.
                # A task's own OSError arrives as a plain exception.
                broken: Dict[str, BaseException] = {}
                remaining = set(futures)
                while remaining:
                    watching = deadline is not None and not broken
                    done, remaining = wait(
                        remaining, timeout=_WATCHDOG_TICK if watching else None,
                        return_when=FIRST_COMPLETED)
                    for future in done:
                        key = futures[future]
                        try:
                            value, snapshot, source, ran = future.result()
                        except BrokenExecutor as exc:
                            broken[key] = exc
                            continue
                        except Exception as exc:
                            # The task itself failed in a healthy worker.
                            fail(key, exc)
                            continue
                        if deadline is not None and ran > deadline:
                            # Overran, but finished before a tick saw it.
                            expire(key)
                            continue
                        telemetry.registry.merge(snapshot, worker=source)
                        pending.remove(key)
                        on_done(ledgers[key], value)
                    if watching:
                        _drain_starts(starts, started, since=now)
                        tick = time.monotonic()
                        overdue = [key for future, key in futures.items()
                                   if not future.done() and key not in expired
                                   and tick - started.get(key, tick) > deadline]
                        if overdue:
                            expired.update(overdue)
                            self._count("deadline_kills", len(overdue))
                            terminate_workers(pool)
                if not broken:
                    continue
                if expired:
                    # The watchdog's kill: only the expired tasks are
                    # charged; the collateral victims go free.
                    for key in broken:
                        if key in expired:
                            expire(key)
                else:
                    self._count("pool_failures")
                    if len(broken) == 1:
                        (key, exc), = broken.items()
                        fail(key, exc)
                    else:
                        suspects.update(broken)
                pool.shutdown(wait=False)
                pool = None
            # Every future is done: join the idle workers so none
            # outlives the run and competes with what runs next.
            if pool is not None:
                pool.shutdown(wait=True)
                pool = None
        finally:
            if pool is not None:
                pool.shutdown(wait=False)


@dataclass
class PointFailure:
    """One quarantined point: identity, attempts, and every fingerprint.

    ``occurrences`` counts how many times this *same* crash (same key,
    same fingerprint set) was quarantined — it grows across reruns of
    the campaign instead of the sidecar growing duplicate lines.
    """

    key: str
    job: str
    input_gb: float
    seed: int
    attempts: int
    fingerprints: List[FailureFingerprint] = field(default_factory=list)
    occurrences: int = 1

    def crash_signature(self) -> Tuple[Any, ...]:
        """What makes two quarantine records "the same crash"."""
        return (self.key,
                tuple((f.exception_type, f.traceback_sha256)
                      for f in self.fingerprints))

    def to_dict(self) -> Dict[str, Any]:
        return {"key": self.key, "job": self.job, "input_gb": self.input_gb,
                "seed": self.seed, "attempts": self.attempts,
                "occurrences": self.occurrences,
                "fingerprints": [f.to_dict() for f in self.fingerprints]}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "PointFailure":
        return cls(key=data["key"], job=data["job"],
                   input_gb=data["input_gb"], seed=data["seed"],
                   attempts=data["attempts"],
                   occurrences=int(data.get("occurrences", 1)),
                   fingerprints=[FailureFingerprint.from_dict(f)
                                 for f in data.get("fingerprints", [])])

    def describe(self) -> str:
        last = self.fingerprints[-1].short() if self.fingerprints else "?"
        seen = (f", seen {self.occurrences}x" if self.occurrences > 1 else "")
        return (f"{self.job} {self.input_gb} GiB seed={self.seed} "
                f"({self.attempts} attempt(s){seen}): {last}")


class CampaignPointsFailed(RuntimeError):
    """Raised after the campaign *completed* when some points exhausted
    their attempt budget and were quarantined.  Carries the partial
    results (``None`` at failed indices) and the failures, so callers
    can still use everything that did resolve.
    """

    def __init__(self, failures: List[PointFailure], results: List[Any]):
        self.failures = failures
        self.results = results
        lines = "\n  ".join(failure.describe() for failure in failures)
        super().__init__(
            f"{len(failures)} campaign point(s) quarantined:\n  {lines}")

    def __reduce__(self):
        # Picklable, so a capture node run in a spawn worker can raise it.
        return type(self), (self.failures, self.results)


class Quarantine:
    """Deduplicating ``quarantine.jsonl`` sidecar of poisoned points.

    Every quarantined point is one durable JSON line, so post-mortems
    survive the process (the runners also keep this run's failures in
    memory).  Opening an existing sidecar loads it first (a damaged one
    raises, see :meth:`load`), and recording a failure whose
    :meth:`PointFailure.crash_signature` matches a known line bumps that
    line's ``occurrences`` (and attempt total) instead of appending a
    duplicate — so a poison point crashed across ten reruns is *one*
    line with ``occurrences: 10``.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.failures = Quarantine.load(self.path)

    def record(self, failure: PointFailure) -> PointFailure:
        """Record (or merge) one failure; returns the stored record.

        The whole sidecar is re-published through ``write_atomic`` each
        time, so it is never torn and survives power loss.
        """
        signature = failure.crash_signature()
        stored = next((known for known in self.failures
                       if known.crash_signature() == signature), None)
        if stored is None:
            stored = failure
            self.failures.append(failure)
        else:
            stored.occurrences += failure.occurrences
            stored.attempts += failure.attempts
        write_atomic(self.path, "".join(
            json.dumps(known.to_dict(), sort_keys=True) + "\n"
            for known in self.failures))
        return stored

    def __len__(self) -> int:
        return len(self.failures)

    @classmethod
    def load(cls, path: str | Path) -> List[PointFailure]:
        """Read a sidecar back; a missing file holds no failures.

        A line that does not parse raises :class:`ValueError` naming the
        file and the line, so damage surfaces instead of being erased by
        the next :meth:`record`, which republishes what was loaded.
        """
        try:
            text = Path(path).read_text(encoding="utf-8")
        except FileNotFoundError:
            return []
        out: List[PointFailure] = []
        for number, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                out.append(PointFailure.from_dict(json.loads(line)))
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                raise ValueError(
                    f"damaged quarantine sidecar {path}: line {number} "
                    f"({type(exc).__name__}: {exc})") from exc
        return out
