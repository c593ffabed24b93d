"""Persistent content-addressed store for capture results.

The evaluation is a sweep over job type × input size × cluster
configuration, and the same (job, size, config, seed) point is
re-simulated by many benchmark files and CLI invocations.  The
in-memory memo in front of :func:`repro.experiments.campaigns.
resolve_points` only helps within one process; this store makes
captures reusable artifacts across processes and runs, the way
trace-driven simulator toolchains treat traces as first-class build
products.  A :class:`~repro.experiments.runner.CampaignRunner` given a
store reads each point from it before simulating, and publishes each
point it simulates.  ``resolve_points`` opens the store that
:data:`STORE_ENV_VAR` names on every call; ``keddah capture`` and
``keddah campaign`` open ``--store`` (else the same variable).

Keying
------
An entry's address is the SHA-256 of the canonical JSON of the full
capture point — ``(job, input_gb, seed, configuration, job_kwargs)``
plus the trace-format version (:data:`TRACE_FORMAT_VERSION`).  The
canonical dict is produced by :func:`repro.experiments.runner.
CapturePoint.key_dict` and shared with the in-memory memo, so both
caches always agree on what "the same capture" means.  Bumping
``TRACE_FORMAT_VERSION`` invalidates every existing entry at read time
(stale entries fall back to re-simulation, they are never trusted).

On-disk format
--------------
One file per entry, ``objects/<hh>/<hash>.jsonl`` (two-level fan-out on
the first hash byte).  The first line is a store header carrying the
format version, the full canonical key (for debuggability — the hash
alone is opaque) and the :class:`~repro.mapreduce.result.JobResult`
summary; every following line is the trace's existing JSONL encoding
(one meta line, then one line per flow), byte-identical to
:meth:`JobTrace.to_jsonl`.

Writes are atomic and durable (tmp file in the same directory,
``fsync``, ``os.replace``, then ``fsync`` of the containing directory)
so concurrent writers and crashes can never publish a half-written
entry — and a published entry survives power loss, not just process
kill.
Reads are corruption-tolerant: any parse/validation failure is counted
and treated as a miss, and the next :meth:`put` simply overwrites the
bad file.  :meth:`CaptureStore.get` and :meth:`CaptureStore.verify`
judge an entry by one rule: it decodes, and its embedded key hashes to
its file name.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.capture.records import CaptureMeta, FlowRecord, JobTrace
from repro.mapreduce.result import JobResult, PlanResult
from repro.obs.metrics import MetricsRegistry

#: Version of the (key schema, entry layout, trace JSONL schema) triple.
#: Bump when any of them changes shape; old entries then re-simulate.
#: v2: key schema grew a top-level ``backend`` discriminator (transport
#: substrate), so fluid/analytic captures of one point can never alias.
#: v3: entries may hold workload-plan captures (``result_type: plan``
#: headers with a PlanResult summary) and plan points key on a ``plan``
#: block instead of ``job``/``input_gb``/``job_kwargs``.
TRACE_FORMAT_VERSION = 3

#: Environment variable naming the default store directory, read by
#: :func:`store_from_env` on every call.  Unset = no persistent store
#: (the in-memory memo still applies).
STORE_ENV_VAR = "KEDDAH_CAPTURE_STORE"


def canonical_json(data: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace drift."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"),
                      default=str)


def fsync_dir(path: str | Path) -> None:
    """fsync a directory so a just-published name survives power loss.

    ``os.replace`` makes a write atomic with respect to *readers*, but
    the new directory entry itself lives in the parent directory's
    metadata — until that is synced, a power cut can roll the rename
    back even though the file's bytes were fsynced.  Platforms whose
    directories cannot be opened/fsynced (some filesystems, Windows)
    degrade silently: atomicity still holds, only power-loss durability
    is best-effort there.
    """
    try:
        fd = os.open(os.fspath(path), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def write_atomic(path: str | Path, text: str, durable: bool = True) -> Path:
    """Atomically (and durably) publish ``text`` at ``path``.

    tmp file in the same directory -> write -> fsync(file) ->
    ``os.replace`` -> fsync(parent dir).  ``durable=False`` skips both
    fsyncs for callers that only need crash *atomicity* (never a torn
    file), not power-loss durability.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent,
                                    prefix=f".{path.name[:24]}.",
                                    suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            if durable:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    if durable:
        fsync_dir(path.parent)
    return path


def key_hash(key: Dict[str, Any]) -> str:
    """SHA-256 address of a canonical key dict."""
    return hashlib.sha256(canonical_json(key).encode("utf-8")).hexdigest()


def encode_entry(key: Dict[str, Any], result: Any, trace: JobTrace) -> str:
    """The on-disk entry payload: store header + verbatim trace JSONL.

    ``result`` is either a :class:`JobResult` (single-job capture) or a
    :class:`PlanResult` (workload-plan capture); the header's
    ``result_type`` discriminator routes decoding, with absence meaning
    ``job`` so single-job headers keep their familiar v2 shape.
    """
    header: Dict[str, Any] = {
        "store": {"format": TRACE_FORMAT_VERSION, "key": key},
        "result": result.to_dict(),
    }
    if isinstance(result, PlanResult):
        header["result_type"] = "plan"
    lines = [json.dumps(header),
             json.dumps({"meta": trace.meta.to_dict()})]
    lines.extend(json.dumps(flow.to_dict()) for flow in trace.flows)
    return "\n".join(lines) + "\n"


def decode_entry(text: str) -> Tuple[Any, JobTrace]:
    """Inverse of :func:`encode_entry`.

    Raises :class:`_StaleEntry` for entries written under another
    format version and arbitrary parse errors for corrupt payloads —
    callers treat both as misses.
    """
    lines = text.splitlines()
    header = json.loads(lines[0])
    store_info = header["store"]
    if store_info["format"] != TRACE_FORMAT_VERSION:
        raise _StaleEntry(store_info["format"])
    result_type = header.get("result_type", "job")
    if result_type == "plan":
        result = PlanResult.from_dict(header["result"])
    elif result_type == "job":
        result = JobResult.from_dict(header["result"])
    else:
        raise ValueError(f"unknown entry result_type {result_type!r}")
    meta_line = json.loads(lines[1])
    meta = CaptureMeta.from_dict(meta_line["meta"])
    # One parse for all flow lines, cheaper than one per line.  A line
    # holding two objects would still parse, so the object count must
    # match the line count.
    flow_lines = [line for line in lines[2:] if line.strip()]
    decoded = json.loads("[" + ",".join(flow_lines) + "]")
    if len(decoded) != len(flow_lines):
        raise ValueError("entry flow lines do not hold one flow each")
    flows = [FlowRecord.from_dict(flow) for flow in decoded]
    trace = JobTrace(meta=meta, flows=flows)
    if trace.meta.job_id != result.job_id:
        raise ValueError("entry result/trace job ids disagree")
    return result, trace


def entry_key(text: str) -> Dict[str, Any]:
    """The canonical key embedded in an entry payload's header."""
    return json.loads(text.partition("\n")[0])["store"]["key"]


def _checked_entry(text: str, digest: str) -> Tuple[Any, JobTrace]:
    """Decode an entry filed under ``digest``: the one validity rule.

    Raises what :func:`decode_entry` raises, and :class:`_MisfiledEntry`
    when the embedded key does not hash to ``digest`` (a renamed or
    copied file would otherwise answer for another point).
    """
    entry = decode_entry(text)
    if key_hash(entry_key(text)) != digest:
        raise _MisfiledEntry(digest)
    return entry


#: The counters a store keeps on its registry as ``store.<name>``.
_STAT_FIELDS = ("hits", "misses", "writes", "corrupt", "stale",
                "bytes_read", "bytes_written")


class CaptureStore:
    """Content-addressed (JobResult, JobTrace) store rooted at a directory.

    It is also a campaign's checkpoint: the runner puts each point as
    soon as it resolves.
    """

    def __init__(self, root: str | Path,
                 registry: Optional[MetricsRegistry] = None):
        self.root = Path(root)
        self.registry = registry if registry is not None else MetricsRegistry()
        self._counters = {name: self.registry.counter(f"store.{name}")
                          for name in _STAT_FIELDS}

    def _count(self, name: str, amount: float = 1) -> None:
        self._counters[name].value += amount

    # -- paths -------------------------------------------------------------------

    @property
    def objects_dir(self) -> Path:
        return self.root / "objects"

    def entry_path(self, digest: str) -> Path:
        return self.objects_dir / digest[:2] / f"{digest}.jsonl"

    def _entries(self) -> Iterator[Path]:
        if not self.objects_dir.is_dir():
            return iter(())
        return self.objects_dir.glob("*/*.jsonl")

    # -- read --------------------------------------------------------------------

    def get(self, key: Dict[str, Any]) -> Optional[Tuple[JobResult, JobTrace]]:
        """Look up a capture point; None on miss/corruption/staleness."""
        digest = key_hash(key)
        try:
            text = self.entry_path(digest).read_text(encoding="utf-8")
        except OSError:
            self._count("misses")
            return None
        try:
            entry = _checked_entry(text, digest)
        except _StaleEntry:
            self._count("stale")
            self._count("misses")
            return None
        except Exception:
            # Truncated write, disk corruption, foreign or misfiled
            # file: re-simulate.
            self._count("corrupt")
            self._count("misses")
            return None
        self._count("hits")
        self._count("bytes_read", len(text))
        return entry

    # -- write -------------------------------------------------------------------

    def put(self, key: Dict[str, Any], result: JobResult,
            trace: JobTrace) -> Path:
        """Atomically and durably publish one entry; returns its path.

        ``write_atomic`` fsyncs both the entry file and its containing
        directory, so a published capture survives power loss — the
        pipeline DAG's cache-validity check leans on this.
        """
        path = self.entry_path(key_hash(key))
        payload = encode_entry(key, result, trace)
        write_atomic(path, payload)
        self._count("writes")
        self._count("bytes_written", len(payload))
        return path

    # -- maintenance -------------------------------------------------------------

    def clear(self) -> int:
        """Invalidate the store: delete every entry, return the count."""
        removed = 0
        for path in list(self._entries()):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def entry_count(self) -> int:
        return sum(1 for _ in self._entries())

    def size_bytes(self) -> int:
        total = 0
        for path in self._entries():
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return total

    # -- scrub (verify / repair) ---------------------------------------------------

    @property
    def quarantine_dir(self) -> Path:
        return self.root / "quarantine"

    def _tmp_droppings(self) -> Iterator[Path]:
        """Leftover ``.tmp`` files from writers that died mid-publish."""
        if not self.objects_dir.is_dir():
            return iter(())
        return self.objects_dir.glob("*/.*.tmp")

    def verify(self, repair: bool = False) -> "ScrubReport":
        """Scrub every entry; optionally quarantine the bad ones.

        Each entry is fully decoded and its embedded canonical key is
        re-hashed and compared against the file name, so truncation,
        corruption, stale format versions and mis-addressed (renamed /
        foreign) entries are all caught — instead of every future
        ``get`` silently treating them as misses and re-simulating.

        With ``repair=True`` bad entries move (atomically) into
        ``<root>/quarantine/`` for post-mortems and orphaned ``.tmp``
        droppings are deleted; the store is left clean.  Counted
        through the registry as ``store.scrub.*``.
        """
        report = ScrubReport(repaired=repair)

        def scrub(name: str) -> None:
            self.registry.counter(f"store.scrub.{name}").inc()

        for path in sorted(self._entries()):
            report.scanned += 1
            scrub("scanned")
            problem = None
            try:
                text = path.read_text(encoding="utf-8")
                report.bytes_scanned += len(text)
                _checked_entry(text, path.stem)
            except _StaleEntry:
                problem = "stale"
            except _MisfiledEntry:
                problem = "mismatched"
            except Exception:
                problem = "corrupt"
            if problem is None:
                report.ok += 1
                scrub("ok")
                continue
            setattr(report, problem, getattr(report, problem) + 1)
            scrub(problem)
            report.problems.append(f"{problem}: {path.name}")
            if repair:
                self.quarantine_dir.mkdir(parents=True, exist_ok=True)
                try:
                    os.replace(path, self.quarantine_dir / path.name)
                    report.quarantined += 1
                    scrub("quarantined")
                except OSError:
                    pass
        for tmp in sorted(self._tmp_droppings()):
            report.tmp_files += 1
            scrub("tmp")
            report.problems.append(f"tmp: {tmp.name}")
            if repair:
                try:
                    tmp.unlink()
                    report.removed_tmp += 1
                except OSError:
                    pass
        return report


@dataclass
class ScrubReport:
    """What one :meth:`CaptureStore.verify` pass found (and fixed)."""

    repaired: bool = False
    scanned: int = 0
    ok: int = 0
    corrupt: int = 0
    stale: int = 0
    mismatched: int = 0
    tmp_files: int = 0
    quarantined: int = 0
    removed_tmp: int = 0
    bytes_scanned: int = 0
    problems: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.problems

    def to_dict(self) -> Dict[str, Any]:
        return {"repaired": self.repaired, "scanned": self.scanned,
                "ok": self.ok, "corrupt": self.corrupt, "stale": self.stale,
                "mismatched": self.mismatched, "tmp_files": self.tmp_files,
                "quarantined": self.quarantined,
                "removed_tmp": self.removed_tmp,
                "bytes_scanned": self.bytes_scanned,
                "problems": list(self.problems)}


class _StaleEntry(Exception):
    """Entry written under a different TRACE_FORMAT_VERSION."""


class _MisfiledEntry(Exception):
    """Entry whose embedded key does not hash to its file name."""


def store_from_env(environ: Optional[Dict[str, str]] = None,
                   ) -> Optional[CaptureStore]:
    """The default store named by ``KEDDAH_CAPTURE_STORE``, if any."""
    environ = os.environ if environ is None else environ
    root = environ.get(STORE_ENV_VAR, "").strip()
    return CaptureStore(root) if root else None
