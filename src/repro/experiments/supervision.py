"""Fault tolerance for campaign execution: the supervision layer.

A measurement campaign is a long sequence of independent capture
points, and production-scale sweeps only finish because the harness
tolerates partial failure: a worker OOM-killed by the kernel, a point
that hangs in a pathological configuration, or a genuinely poisoned
point that raises deterministically must not abort the whole run and
discard every in-flight result.  This module supplies the pieces the
:class:`~repro.experiments.runner.CampaignRunner` threads together:

* **failure classification** (:func:`classify_failure`) — *transient*
  worker failures (broken pools, pickling/IPC errors, OOM kills) are
  retryable; *deterministic* simulation errors are not (re-running a
  pure function on the same inputs re-raises the same exception);
  *deadline* expiries sit in between (a hang may be load-dependent, so
  they retry like transients).
* **retry policy** (:class:`RetryPolicy`) — attempt budget, per-point
  wall-clock deadline, and exponential backoff whose jitter is derived
  deterministically from the point key, so two runs of the same
  campaign sleep identically (no ``random`` in the control path).
* **failure fingerprints** (:class:`FailureFingerprint`) — exception
  type + message + a hash of the normalised traceback, so repeated
  failures of the same point are recognisably "the same crash".
* **quarantine** (:class:`Quarantine`) — a ``quarantine.jsonl`` sidecar
  recording each poisoned point's fingerprints; the campaign completes
  with an explicit partial-result manifest instead of dying.

The campaign's checkpoint is its
:class:`~repro.experiments.store.CaptureStore`: the runner stores each
point the moment it resolves, and rerunning against the same store
resumes a killed campaign.

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
import traceback
from concurrent.futures import BrokenExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.experiments.store import fsync_dir, write_atomic

#: Failure classes.  ``TRANSIENT`` failures are environmental and
#: retryable; ``DETERMINISTIC`` failures repeat on every attempt;
#: ``DEADLINE`` marks watchdog kills of hung points (retried like
#: transients — a hang can be load-dependent).
TRANSIENT = "transient"
DETERMINISTIC = "deterministic"
DEADLINE = "deadline"


class DeadlineExpired(Exception):
    """A point exceeded its per-point wall-clock deadline."""


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
    """Attempt budget, deadline and deterministic backoff for one campaign.

    ``delay`` grows exponentially per attempt and is jittered by a hash
    of ``(key, attempt)`` — deterministic, so a re-run of the same
    campaign schedules retries identically (the same property the
    simulator's seeded RNG gives simulated randomness).
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    backoff: float = 2.0
    max_delay: float = 5.0
    jitter: float = 0.5
    deadline_s: Optional[float] = None
    retry_deterministic: bool = False

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive when set")

    def should_retry(self, classification: str, attempts: int) -> bool:
        """May a point that has already burned ``attempts`` try again?"""
        if attempts >= self.max_attempts:
            return False
        if classification == DETERMINISTIC:
            return self.retry_deterministic
        return True

    def delay(self, key: str, attempts: int) -> float:
        """Backoff before attempt ``attempts + 1`` of point ``key``."""
        if self.base_delay <= 0:
            return 0.0
        raw = self.base_delay * (self.backoff ** max(0, attempts - 1))
        digest = hashlib.sha256(f"{key}:{attempts}".encode()).digest()
        unit = int.from_bytes(digest[:8], "big") / float(1 << 64)
        return min(self.max_delay, raw * (1.0 + self.jitter * unit))


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
    """Raised by strict runs after the campaign *completed*: some points
    exhausted their attempt budget and were quarantined.  Carries the
    partial results (``None`` at failed indices) and the failures, so
    callers can still use everything that did resolve.
    """

    def __init__(self, failures: List[PointFailure], results: List[Any]):
        self.failures = failures
        self.results = results
        lines = "\n  ".join(failure.describe() for failure in failures)
        super().__init__(
            f"{len(failures)} campaign point(s) quarantined:\n  {lines}")


class Quarantine:
    """Deduplicating ``quarantine.jsonl`` sidecar of poisoned points.

    With ``path=None`` the quarantine is memory-only (failures are
    still collected on the runner); with a path, every quarantined
    point is one durable JSON line so post-mortems survive the process.
    Opening an existing sidecar loads it first, and recording a failure
    whose :meth:`PointFailure.crash_signature` matches a known line
    bumps that line's ``occurrences`` (and attempt total) instead of
    appending a duplicate — so a poison point crashed across ten
    reruns is *one* line with ``occurrences: 10``.
    """

    def __init__(self, path: Optional[str | Path] = None):
        self.path = Path(path) if path is not None else None
        self.failures: List[PointFailure] = []
        if self.path is not None and self.path.exists():
            self.failures = Quarantine.load(self.path)

    def record(self, failure: PointFailure) -> PointFailure:
        """Record (or merge) one failure; returns the stored record."""
        signature = failure.crash_signature()
        for known in self.failures:
            if known.crash_signature() == signature:
                known.occurrences += failure.occurrences
                known.attempts += failure.attempts
                self._rewrite()
                return known
        self.failures.append(failure)
        if self.path is not None:
            created = not self.path.exists()
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(failure.to_dict(), sort_keys=True)
                             + "\n")
                handle.flush()
                os.fsync(handle.fileno())
            if created:
                fsync_dir(self.path.parent)
        return failure

    def _rewrite(self) -> None:
        """Atomically re-publish the whole sidecar (after a merge)."""
        if self.path is None:
            return
        text = "".join(json.dumps(failure.to_dict(), sort_keys=True) + "\n"
                       for failure in self.failures)
        write_atomic(self.path, text)

    def __len__(self) -> int:
        return len(self.failures)

    @classmethod
    def load(cls, path: str | Path) -> List[PointFailure]:
        """Read a sidecar back (tolerating a truncated final line)."""
        out: List[PointFailure] = []
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError:
            return out
        for line in text.splitlines():
            if not line.strip():
                continue
            try:
                out.append(PointFailure.from_dict(json.loads(line)))
            except (ValueError, KeyError):
                continue  # torn tail write
        return out
