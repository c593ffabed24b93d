"""Crash-safe campaign DAGs: a journaled multi-stage pipeline scheduler.

The toolchain this repo reproduces is itself a pipeline — capture
Hadoop traffic, classify it, fit per-job models, replay synthetic
traces, validate, report — and every experiment figure used to
re-derive that chain from scratch.  This module turns the chain into
an explicit DAG of stages with three properties the flat
:class:`~repro.experiments.runner.CampaignRunner` cannot offer:

**Isolation** — every node runs in its own working directory under
``<root>/nodes/<name>@<sig12>/``, where the signature is the SHA-256 of
the node's full config *plus the digests of its upstream outputs*
(the kwdagger ``ProcessNode`` pattern).  Editing one mid-DAG node's
config therefore re-keys exactly that node and its descendants;
everything upstream keeps its directory and is reused as a cache hit.

**Durability** — every node state transition is appended (fsynced) to
``<root>/journal.jsonl`` before and after the work happens, and a node
counts as complete only once its ``outputs.json`` manifest — listing
each declared output's relative path and content digest — has been
atomically published.  SIGKILL at any instant leaves either a complete
node (reused on resume) or an incomplete one (re-run on resume); the
final artifacts are byte-identical either way.

**Relocatability** — nothing under ``<root>`` stores an absolute path:
the journal, the ``node.json`` descriptors and the ``.pred.json`` /
``.succ.json`` link records all hold root- or node-relative paths, so
the whole pipeline directory can be moved (or shipped) and a new
:class:`DAGRunner` pointed at it resumes with full cache hits.

Failure handling reuses PR 4's supervision machinery: per-node
:class:`~repro.experiments.supervision.RetryPolicy` (with watchdog
deadlines enforced by a disposable spawn worker), failure
classification, and a :class:`~repro.experiments.supervision.
Quarantine` sidecar.  Propagation is configurable — ``fail-fast``
stops scheduling at the first quarantined node, ``continue`` finishes
every independent branch before raising, ``skip-descendants`` finishes
independent branches and returns a partial result without raising.
In *every* mode the descendants of a failed node are explicitly marked
``BLOCKED`` (never silently skipped), mirroring the runner's explicit
partial-result manifest.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import time
from concurrent.futures import FIRST_COMPLETED, wait
from concurrent.futures.process import ProcessPoolExecutor
from dataclasses import dataclass, field
from multiprocessing import get_context
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.experiments.store import canonical_json, write_atomic
from repro.experiments.supervision import (
    DeadlineExpired,
    FailureFingerprint,
    PointFailure,
    Quarantine,
    RetryPolicy,
    classify_failure,
)
from repro.obs.telemetry import Telemetry

#: Version of the (signature schema, journal schema, manifest schema)
#: triple.  Bump when any changes shape; old node dirs then re-run.
DAG_FORMAT_VERSION = 1

# -- node lifecycle states ----------------------------------------------------------

PENDING = "pending"        #: not yet scheduled this run
RUNNING = "running"        #: journaled just before the stage function runs
DONE = "done"              #: executed this run; outputs.json published
CACHED = "cached"          #: valid outputs.json found; stage not re-run
FAILED = "failed"          #: one attempt failed (may still retry)
QUARANTINED = "quarantined"  #: attempt budget exhausted; recorded in sidecar
BLOCKED = "blocked"        #: an upstream node failed; cannot run
SKIPPED = "skipped"        #: unstarted when a fail-fast run aborted

#: States a finished run can leave a node in.
TERMINAL_STATES = (DONE, CACHED, QUARANTINED, BLOCKED, SKIPPED)

# -- failure propagation modes ------------------------------------------------------

FAIL_FAST = "fail-fast"
CONTINUE = "continue"
SKIP_DESCENDANTS = "skip-descendants"
PROPAGATION_MODES = (FAIL_FAST, CONTINUE, SKIP_DESCENDANTS)

#: Env var naming node(s) in which to SIGKILL *this process* right
#: after the RUNNING transition is journaled — the crash-injection hook
#: the resume acceptance tests and the check.sh gate use.
CRASH_ENV_VAR = "KEDDAH_PIPELINE_CRASH_IN"


class PipelineDefinitionError(ValueError):
    """The DAG is malformed: duplicate/unknown nodes or bad wiring."""


class PipelineCycleError(PipelineDefinitionError):
    """The declared dependencies contain a cycle."""


class StageOutputMissing(RuntimeError):
    """A stage returned without materialising a declared output."""


# -- stage registry -----------------------------------------------------------------

_STAGE_REGISTRY: Dict[str, Callable[["StageContext"], Any]] = {}


def register_stage(name: str) -> Callable[[Callable], Callable]:
    """Register a stage function under a stable name.

    Registry stages (unlike raw ``fn=`` callables) can be executed in a
    disposable spawn worker, which is what makes watchdog deadlines
    enforceable — the parent can terminate the worker mid-stage.
    """

    def decorate(fn: Callable[["StageContext"], Any]) -> Callable:
        if name in _STAGE_REGISTRY and _STAGE_REGISTRY[name] is not fn:
            raise PipelineDefinitionError(f"stage {name!r} already registered")
        _STAGE_REGISTRY[name] = fn
        return fn

    return decorate


def stage_registry() -> Dict[str, Callable]:
    return dict(_STAGE_REGISTRY)


# -- DAG structure ------------------------------------------------------------------


@dataclass(frozen=True)
class StageNode:
    """One pipeline stage: what it consumes, produces, and runs.

    ``in_paths`` maps an input name to ``(upstream node, upstream
    output name)`` — dependencies are *derived* from this wiring, never
    declared separately, so an edge always corresponds to data moving.
    ``out_paths`` maps an output name to a path relative to the node's
    ``work/`` directory (a file or a directory).  ``stage`` names a
    registered stage function; ``fn`` may override it with a direct
    callable (tests, embedders) at the cost of deadline enforcement.
    """

    name: str
    stage: str
    config: Mapping[str, Any] = field(default_factory=dict)
    in_paths: Mapping[str, Tuple[str, str]] = field(default_factory=dict)
    out_paths: Mapping[str, str] = field(default_factory=dict)
    fn: Optional[Callable[["StageContext"], Any]] = None

    def predecessors(self) -> List[str]:
        return sorted({upstream for upstream, _ in self.in_paths.values()})


class PipelineDAG:
    """A named set of :class:`StageNode`\\ s with validated wiring."""

    def __init__(self, name: str = "pipeline"):
        self.name = name
        self._nodes: Dict[str, StageNode] = {}

    def add(self, node: StageNode) -> StageNode:
        if node.name in self._nodes:
            raise PipelineDefinitionError(f"duplicate node {node.name!r}")
        if not node.out_paths:
            raise PipelineDefinitionError(
                f"node {node.name!r} declares no out_paths; every stage "
                "must produce at least one artifact")
        self._nodes[node.name] = node
        return node

    def node(self, name: str) -> StageNode:
        try:
            return self._nodes[name]
        except KeyError:
            raise PipelineDefinitionError(f"unknown node {name!r}") from None

    def nodes(self) -> List[StageNode]:
        return list(self._nodes.values())

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def validate(self) -> None:
        """Check wiring: known upstreams, known output names, no cycles."""
        for node in self._nodes.values():
            for input_name, (upstream, output) in node.in_paths.items():
                if upstream not in self._nodes:
                    raise PipelineDefinitionError(
                        f"node {node.name!r} input {input_name!r} references "
                        f"unknown upstream {upstream!r}")
                if output not in self._nodes[upstream].out_paths:
                    raise PipelineDefinitionError(
                        f"node {node.name!r} input {input_name!r} references "
                        f"unknown output {upstream!r}:{output!r}")
        self.topological_order()

    def topological_order(self) -> List[str]:
        """Deterministic (name-sorted Kahn) topological order."""
        indegree = {name: len(node.predecessors())
                    for name, node in self._nodes.items()}
        ready = sorted(name for name, degree in indegree.items()
                       if degree == 0)
        order: List[str] = []
        successors = self._successor_map()
        while ready:
            name = ready.pop(0)
            order.append(name)
            changed = False
            for downstream in successors.get(name, ()):
                indegree[downstream] -= 1
                if indegree[downstream] == 0:
                    ready.append(downstream)
                    changed = True
            if changed:
                ready.sort()
        if len(order) != len(self._nodes):
            cyclic = sorted(name for name in self._nodes
                            if name not in order)
            raise PipelineCycleError(
                f"dependency cycle among nodes: {', '.join(cyclic)}")
        return order

    def _successor_map(self) -> Dict[str, List[str]]:
        successors: Dict[str, List[str]] = {}
        for node in self._nodes.values():
            for upstream in node.predecessors():
                successors.setdefault(upstream, []).append(node.name)
        return {name: sorted(group) for name, group in successors.items()}

    def successors(self, name: str) -> List[str]:
        self.node(name)
        return self._successor_map().get(name, [])

    def descendants(self, name: str) -> List[str]:
        """Every transitive successor of ``name`` (sorted)."""
        successors = self._successor_map()
        seen: set = set()
        frontier = list(successors.get(name, ()))
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            frontier.extend(successors.get(current, ()))
        return sorted(seen)


# -- signatures and digests ---------------------------------------------------------


def node_signature(node: StageNode,
                   upstream_digests: Mapping[str, str]) -> str:
    """Content address of one node: config + upstream output digests.

    Two nodes share a signature (and hence a working directory) iff
    they would compute the same thing: same stage, same config, and
    byte-identical upstream inputs.  A config edit re-keys the node; a
    byte change in any upstream output cascades through this digest to
    every descendant.
    """
    payload = {"format": DAG_FORMAT_VERSION,
               "name": node.name,
               "stage": node.stage,
               "config": dict(node.config),
               "outputs": dict(node.out_paths),
               "inputs": {input_name: {"from": f"{upstream}:{output}",
                                       "digest": upstream_digests[input_name]}
                          for input_name, (upstream, output)
                          in sorted(node.in_paths.items())}}
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def digest_path(path: Path) -> str:
    """Content digest of an output artifact (file or directory tree).

    Directories digest as the canonical JSON of their sorted
    ``(relative path, file sha256, size)`` triples.  Dot-prefixed files
    are excluded: they are bookkeeping (atomic-write ``.tmp`` droppings
    from a killed attempt, link records), not artifact content, and
    must not make a resumed run's digest diverge from an uninterrupted
    one.
    """
    path = Path(path)
    if path.is_dir():
        entries = []
        for file in sorted(path.rglob("*")):
            if not file.is_file():
                continue
            relative = file.relative_to(path)
            if any(part.startswith(".") for part in relative.parts):
                continue
            entries.append([relative.as_posix(), _file_sha256(file),
                            file.stat().st_size])
        payload = canonical_json({"dir": entries})
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()
    if path.is_file():
        return _file_sha256(path)
    raise StageOutputMissing(f"declared output missing on disk: {path}")


def _file_sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def node_dirname(name: str, signature: str) -> str:
    return f"{name}@{signature[:12]}"


# -- stage execution context --------------------------------------------------------


@dataclass
class StageContext:
    """What a stage function sees: its sandbox, config, and inputs.

    ``inputs`` maps each declared input name to the *resolved* path of
    the upstream artifact; ``out(name)`` returns where the declared
    output must be materialised (parents pre-created).  Stages must
    write only under ``workdir`` — that is the isolation contract.
    """

    name: str
    workdir: Path
    config: Dict[str, Any]
    inputs: Dict[str, Path]
    out_paths: Dict[str, str]
    telemetry: Telemetry

    def input(self, name: str) -> Path:
        try:
            return self.inputs[name]
        except KeyError:
            raise PipelineDefinitionError(
                f"stage {self.name!r} asked for undeclared input {name!r}"
            ) from None

    def out(self, name: str) -> Path:
        try:
            relative = self.out_paths[name]
        except KeyError:
            raise PipelineDefinitionError(
                f"stage {self.name!r} asked for undeclared output {name!r}"
            ) from None
        path = self.workdir / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        return path

    def write_output(self, name: str, text: str) -> Path:
        """Atomically materialise a text output (the common case)."""
        return write_atomic(self.out(name), text)


def _run_stage_in_worker(stage: str, name: str, workdir: str,
                         config: Dict[str, Any], inputs: Dict[str, str],
                         out_paths: Dict[str, str]) -> None:
    """Spawn-worker entry point for deadline-enforced stages.

    Imports the built-in stage definitions (registration is an import
    side effect), then runs the named stage against the shared
    filesystem.  Only registry stages come through here — a raw ``fn``
    callable cannot be named across a spawn boundary.
    """
    import repro.experiments.pipelines  # noqa: F401  (registers stages)

    fn = _STAGE_REGISTRY[stage]
    context = StageContext(name=name, workdir=Path(workdir),
                           config=dict(config),
                           inputs={key: Path(value)
                                   for key, value in inputs.items()},
                           out_paths=dict(out_paths),
                           telemetry=Telemetry.disabled())
    fn(context)


# -- the DAG journal ----------------------------------------------------------------


class DAGJournal:
    """Append-only fsynced JSONL of node state transitions.

    Header line first, one JSON object per transition, torn tail lines
    tolerated and counted, every append fsynced (and the containing
    directory fsynced when the file is created).  It records
    *transitions*, not payloads — node outputs live in the node dirs;
    the journal is the authoritative history of what happened when::

        {"dag_journal": {"format": 1, "pipeline": "..."}}
        {"transition": {"node": "fit", "signature": "...", "state":
                        "running", "attempt": 1, "wall": 1754640000.0}}
    """

    def __init__(self, path: str | Path, pipeline: str = "pipeline"):
        self.path = Path(path)
        self.transitions: List[Dict[str, Any]] = []
        self.truncated_lines = 0
        self._load_existing()
        if not self.path.exists():
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._append({"dag_journal": {"format": DAG_FORMAT_VERSION,
                                          "pipeline": pipeline}})

    def _load_existing(self) -> None:
        try:
            text = self.path.read_text(encoding="utf-8")
        except OSError:
            return
        for line in text.splitlines():
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError:
                self.truncated_lines += 1
                continue
            transition = record.get("transition")
            if isinstance(transition, dict):
                self.transitions.append(transition)

    def _append(self, record: Dict[str, Any]) -> None:
        from repro.experiments.store import fsync_dir

        created = not self.path.exists()
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        if created:
            fsync_dir(self.path.parent)

    def record(self, node: str, signature: str, state: str,
               **extra: Any) -> Dict[str, Any]:
        """Durably journal one node state transition."""
        transition = dict(extra, node=node, signature=signature,
                          state=state, wall=time.time())
        self.transitions.append(transition)
        self._append({"transition": transition})
        return transition

    def run_counts(self) -> Dict[str, int]:
        """How many times each node entered RUNNING (across all runs)."""
        counts: Dict[str, int] = {}
        for transition in self.transitions:
            if transition.get("state") == RUNNING:
                name = transition.get("node", "?")
                counts[name] = counts.get(name, 0) + 1
        return counts

    def last_states(self) -> Dict[str, Dict[str, Any]]:
        """The most recent transition per node."""
        latest: Dict[str, Dict[str, Any]] = {}
        for transition in self.transitions:
            latest[transition.get("node", "?")] = transition
        return latest


# -- run results --------------------------------------------------------------------


@dataclass
class NodeOutcome:
    """How one node ended up in one run."""

    name: str
    stage: str
    state: str
    signature: str = ""
    dir: str = ""                       #: root-relative node dir
    attempts: int = 0
    outputs: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    reason: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "stage": self.stage, "state": self.state,
                "signature": self.signature, "dir": self.dir,
                "attempts": self.attempts, "outputs": self.outputs,
                "reason": self.reason}


class PipelineResult:
    """What one :meth:`DAGRunner.run` produced (possibly partial)."""

    def __init__(self, root: Path, pipeline: str):
        self.root = Path(root)
        self.pipeline = pipeline
        self.outcomes: Dict[str, NodeOutcome] = {}
        self.failures: List[PointFailure] = []

    def record(self, outcome: NodeOutcome) -> NodeOutcome:
        self.outcomes[outcome.name] = outcome
        return outcome

    def states(self) -> Dict[str, str]:
        return {name: outcome.state
                for name, outcome in self.outcomes.items()}

    def in_state(self, *states: str) -> List[str]:
        return sorted(name for name, outcome in self.outcomes.items()
                      if outcome.state in states)

    @property
    def ok(self) -> bool:
        return all(outcome.state in (DONE, CACHED)
                   for outcome in self.outcomes.values())

    def artifact(self, node: str, output: str) -> Path:
        """Resolved path of one completed node's declared output."""
        outcome = self.outcomes[node]
        if outcome.state not in (DONE, CACHED):
            raise StageOutputMissing(
                f"node {node!r} is {outcome.state}, not complete")
        return self.root / outcome.dir / outcome.outputs[output]["path"]

    def manifest(self) -> Dict[str, Any]:
        return {"pipeline": self.pipeline,
                "ok": self.ok,
                "nodes": {name: outcome.to_dict()
                          for name, outcome in sorted(self.outcomes.items())},
                "failures": [failure.to_dict()
                             for failure in self.failures]}


class PipelineFailed(RuntimeError):
    """Raised when the run finished with quarantined/blocked nodes
    (under ``fail-fast`` and ``continue`` propagation).  Carries the
    full :class:`PipelineResult` so callers keep the partial work.
    """

    def __init__(self, result: PipelineResult):
        self.result = result
        bad = result.in_state(QUARANTINED)
        blocked = result.in_state(BLOCKED)
        detail = f"quarantined: {', '.join(bad) or 'none'}"
        if blocked:
            detail += f"; blocked: {', '.join(blocked)}"
        super().__init__(f"pipeline {result.pipeline!r} failed — {detail}")


# -- the runner ---------------------------------------------------------------------


class DAGRunner:
    """Schedules one :class:`PipelineDAG` under a pipeline root dir.

    Layout under ``root``::

        journal.jsonl                    durable transition history
        quarantine.jsonl                 poison-node sidecar (optional)
        nodes/<name>@<sig12>/
            node.json                    descriptor (config, wiring)
            .pred.json / .succ.json      relative link records
            work/...                     declared outputs
            outputs.json                 completion manifest (atomic)
            telemetry/                   per-node telemetry (optional)
    """

    def __init__(self, dag: PipelineDAG, root: str | Path,
                 retry_policy: Optional[RetryPolicy] = None,
                 quarantine: Optional[Quarantine] = None,
                 on_failure: str = FAIL_FAST,
                 telemetry: Optional[Telemetry] = None,
                 events: Optional[Any] = None,
                 node_telemetry: bool = False,
                 verify_outputs: bool = True):
        if on_failure not in PROPAGATION_MODES:
            raise ValueError(f"on_failure must be one of {PROPAGATION_MODES},"
                             f" got {on_failure!r}")
        dag.validate()
        self.dag = dag
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.retry_policy = retry_policy or RetryPolicy()
        self.quarantine = quarantine
        self.on_failure = on_failure
        self.telemetry = telemetry or Telemetry.disabled()
        self.events = events
        self.node_telemetry = node_telemetry
        self.verify_outputs = verify_outputs
        self.journal = DAGJournal(self.root / "journal.jsonl",
                                  pipeline=dag.name)
        self._registry = self.telemetry.registry
        self._last_outcomes: Dict[str, NodeOutcome] = {}

    # -- bookkeeping -----------------------------------------------------------------

    def _count(self, name: str, amount: float = 1) -> None:
        self._registry.counter(f"pipeline.{name}").inc(amount)

    def _publish(self, kind: str, **payload: Any) -> None:
        if self.events is not None:
            self.events.publish(kind, pipeline=self.dag.name, **payload)

    # -- planning --------------------------------------------------------------------

    def plan(self) -> List[Dict[str, Any]]:
        """The topological execution plan with cache hits resolved.

        Each entry says whether the node would be reused (``cached``),
        executed (``run``), or cannot be decided yet because an
        upstream must run first (``stale-upstream`` — its signature
        depends on output bytes that do not exist yet).
        """
        entries: List[Dict[str, Any]] = []
        digests: Dict[str, Dict[str, str]] = {}   # node -> output -> digest
        for name in self.dag.topological_order():
            node = self.dag.node(name)
            upstream_digests = self._upstream_digests(node, digests)
            entry = {"node": name, "stage": node.stage,
                     "after": node.predecessors()}
            if upstream_digests is None:
                entry.update(signature="", dir="", action="stale-upstream")
                entries.append(entry)
                continue
            signature = node_signature(node, upstream_digests)
            dirname = node_dirname(name, signature)
            outputs = self._cached_outputs(node, signature)
            entry.update(signature=signature, dir=f"nodes/{dirname}")
            if outputs is None:
                entry["action"] = "run"
            else:
                entry["action"] = "cached"
                digests[name] = {output: meta["digest"]
                                 for output, meta in outputs.items()}
            entries.append(entry)
        return entries

    def _upstream_digests(self, node: StageNode,
                          digests: Dict[str, Dict[str, str]]
                          ) -> Optional[Dict[str, str]]:
        """Input-name -> upstream output digest, or None if unknowable."""
        resolved: Dict[str, str] = {}
        for input_name, (upstream, output) in node.in_paths.items():
            known = digests.get(upstream)
            if known is None or output not in known:
                return None
            resolved[input_name] = known[output]
        return resolved

    # -- cache validity --------------------------------------------------------------

    def _node_dir(self, name: str, signature: str) -> Path:
        return self.root / "nodes" / node_dirname(name, signature)

    def _cached_outputs(self, node: StageNode, signature: str
                        ) -> Optional[Dict[str, Dict[str, Any]]]:
        """The completion manifest, iff present, matching and verified."""
        manifest_path = self._node_dir(node.name, signature) / "outputs.json"
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        if (manifest.get("format") != DAG_FORMAT_VERSION
                or manifest.get("signature") != signature):
            return None
        outputs = manifest.get("outputs")
        if (not isinstance(outputs, dict)
                or set(outputs) != set(node.out_paths)):
            return None
        if self.verify_outputs:
            base = self._node_dir(node.name, signature)
            for meta in outputs.values():
                try:
                    if digest_path(base / meta["path"]) != meta["digest"]:
                        return None
                except (StageOutputMissing, OSError, KeyError, TypeError):
                    return None
        return outputs

    # -- running ---------------------------------------------------------------------

    def run(self) -> PipelineResult:
        """Execute the DAG; see the class docstring for semantics."""
        order = self.dag.topological_order()
        result = PipelineResult(self.root, self.dag.name)
        digests: Dict[str, Dict[str, str]] = {}
        blocked: Dict[str, str] = {}      # node -> failed upstream
        started = time.monotonic()
        aborted = False
        self._count("runs")
        self._registry.gauge("pipeline.nodes_total").set(len(order))
        self._publish("pipeline", status="started", nodes=len(order))

        for position, name in enumerate(order):
            node = self.dag.node(name)
            if name in blocked:
                outcome = NodeOutcome(
                    name=name, stage=node.stage, state=BLOCKED,
                    reason=f"upstream {blocked[name]} failed")
                self.journal.record(name, "", BLOCKED,
                                    upstream=blocked[name])
                self._finish_node(result, outcome)
                continue
            if aborted:
                outcome = NodeOutcome(name=name, stage=node.stage,
                                      state=SKIPPED,
                                      reason="fail-fast abort")
                self.journal.record(name, "", SKIPPED)
                self._finish_node(result, outcome)
                continue

            upstream_digests = self._upstream_digests(node, digests)
            assert upstream_digests is not None, \
                "topological order guarantees resolved upstream digests"
            signature = node_signature(node, upstream_digests)
            node_dir = self._node_dir(name, signature)
            dirname = os.path.join("nodes", node_dirname(name, signature))

            cached = self._cached_outputs(node, signature)
            if cached is not None:
                digests[name] = {output: meta["digest"]
                                 for output, meta in cached.items()}
                outcome = NodeOutcome(name=name, stage=node.stage,
                                      state=CACHED, signature=signature,
                                      dir=dirname, outputs=cached)
                self.journal.record(name, signature, CACHED)
                self._finish_node(result, outcome)
                continue

            outcome = self._execute_with_retries(
                node, signature, node_dir, dirname, result)
            if outcome.state == DONE:
                digests[name] = {output: meta["digest"]
                                 for output, meta in outcome.outputs.items()}
            else:
                for descendant in self.dag.descendants(name):
                    blocked.setdefault(descendant, name)
                if self.on_failure == FAIL_FAST:
                    aborted = True
            self._finish_node(result, outcome)

        failures = result.in_state(QUARANTINED)
        self._publish("pipeline",
                      status="failed" if failures else "completed",
                      ok=result.ok,
                      wall_s=round(time.monotonic() - started, 3),
                      states=result.states())
        if failures and self.on_failure != SKIP_DESCENDANTS:
            raise PipelineFailed(result)
        return result

    def _finish_node(self, result: PipelineResult,
                     outcome: NodeOutcome) -> None:
        self._last_outcomes[outcome.name] = outcome
        result.record(outcome)
        self._count({DONE: "executed", CACHED: "cache_hits",
                     QUARANTINED: "quarantined", BLOCKED: "blocked",
                     SKIPPED: "skipped"}.get(outcome.state, outcome.state))
        self._registry.gauge("pipeline.nodes_settled").inc()
        self._publish("node", node=outcome.name, stage=outcome.stage,
                      status=outcome.state, signature=outcome.signature[:12],
                      attempts=outcome.attempts,
                      reason=outcome.reason or None)

    # -- single-node execution -------------------------------------------------------

    def _execute_with_retries(self, node: StageNode, signature: str,
                              node_dir: Path, dirname: str,
                              result: PipelineResult) -> NodeOutcome:
        policy = self.retry_policy
        fingerprints: List[FailureFingerprint] = []
        attempts = 0
        inputs = self._resolve_inputs(node)
        while True:
            attempts += 1
            self.journal.record(node.name, signature, RUNNING,
                                attempt=attempts)
            self._publish("node", node=node.name, stage=node.stage,
                          status=RUNNING, signature=signature[:12],
                          attempt=attempts)
            self._maybe_crash(node)
            try:
                outputs = self._execute(node, signature, node_dir,
                                        inputs, attempts)
            except Exception as exc:  # noqa: BLE001 — classified below
                classification = classify_failure(exc)
                fingerprints.append(FailureFingerprint.from_exception(exc))
                self.journal.record(node.name, signature, FAILED,
                                    attempt=attempts,
                                    classification=classification,
                                    error=f"{type(exc).__name__}: {exc}")
                self._publish("node", node=node.name, stage=node.stage,
                              status=FAILED, attempt=attempts,
                              classification=classification)
                if isinstance(exc, DeadlineExpired):
                    self._count("deadline_kills")
                if policy.should_retry(classification, attempts):
                    self._count("retries")
                    time.sleep(policy.delay(signature, attempts))
                    continue
                failure = PointFailure(
                    key=signature, job=f"{self.dag.name}/{node.name}",
                    input_gb=0.0, seed=0, attempts=attempts,
                    fingerprints=fingerprints)
                result.failures.append(failure)
                if self.quarantine is not None:
                    self.quarantine.record(failure)
                self.journal.record(node.name, signature, QUARANTINED,
                                    attempt=attempts)
                outcome = NodeOutcome(
                    name=node.name, stage=node.stage, state=QUARANTINED,
                    signature=signature, dir=dirname, attempts=attempts,
                    reason=fingerprints[-1].short())
                return outcome
            self.journal.record(node.name, signature, DONE,
                                attempt=attempts)
            return NodeOutcome(name=node.name, stage=node.stage, state=DONE,
                               signature=signature, dir=dirname,
                               attempts=attempts, outputs=outputs)

    def _resolve_inputs(self, node: StageNode) -> Dict[str, Path]:
        """Input name -> absolute path of the upstream artifact.

        Only called after every upstream settled (DONE or CACHED) this
        run, so the upstream outcomes' dirs are authoritative.
        """
        resolved: Dict[str, Path] = {}
        for input_name, (upstream, output) in node.in_paths.items():
            outcome = self._last_outcomes[upstream]
            resolved[input_name] = (self.root / outcome.dir
                                    / outcome.outputs[output]["path"])
        return resolved

    def _execute(self, node: StageNode, signature: str, node_dir: Path,
                 inputs: Mapping[str, Path], attempt: int
                 ) -> Dict[str, Dict[str, Any]]:
        workdir = node_dir / "work"
        workdir.mkdir(parents=True, exist_ok=True)
        self._write_descriptor(node, signature, node_dir, inputs)

        telemetry = (Telemetry.enabled_in_memory() if self.node_telemetry
                     else Telemetry.disabled())
        deadline = self.retry_policy.deadline_s
        if deadline is not None and node.fn is None:
            self._execute_in_worker(node, workdir, inputs, deadline)
        else:
            fn = node.fn
            if fn is None:
                try:
                    fn = _STAGE_REGISTRY[node.stage]
                except KeyError:
                    raise PipelineDefinitionError(
                        f"node {node.name!r}: stage {node.stage!r} is not "
                        "registered and no fn was given") from None
            context = StageContext(
                name=node.name, workdir=workdir, config=dict(node.config),
                inputs=dict(inputs), out_paths=dict(node.out_paths),
                telemetry=telemetry)
            fn(context)

        if self.node_telemetry:
            from repro.obs.export import write_telemetry

            write_telemetry(telemetry, node_dir / "telemetry")

        outputs: Dict[str, Dict[str, Any]] = {}
        for output, relative in sorted(node.out_paths.items()):
            path = workdir / relative
            outputs[output] = {"path": (Path("work") / relative).as_posix(),
                               "digest": digest_path(path)}
        manifest = {"format": DAG_FORMAT_VERSION, "node": node.name,
                    "stage": node.stage, "signature": signature,
                    "attempt": attempt, "outputs": outputs}
        # Publishing outputs.json is the commit point: it is written
        # atomically and durably *after* every output digest is taken,
        # so a manifest on disk always describes complete outputs.
        write_atomic(node_dir / "outputs.json",
                     json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        self._write_links(node, node_dir)
        return outputs

    def _execute_in_worker(self, node: StageNode, workdir: Path,
                           inputs: Mapping[str, Path],
                           deadline: float) -> None:
        """Run a registry stage in a disposable spawn worker.

        The watchdog is the parent: if the worker misses the deadline
        its process is terminated (a stage cannot be cancelled from
        inside) and the attempt raises :class:`DeadlineExpired`.
        """
        context = get_context("spawn")
        pool = ProcessPoolExecutor(max_workers=1, mp_context=context)
        future = pool.submit(
            _run_stage_in_worker, node.stage, node.name, str(workdir),
            dict(node.config),
            {name: str(path) for name, path in inputs.items()},
            dict(node.out_paths))
        try:
            done, _ = wait([future], timeout=deadline,
                           return_when=FIRST_COMPLETED)
            if not done:
                for process in list(getattr(pool, "_processes", {}).values()):
                    process.terminate()
                raise DeadlineExpired(
                    f"node {node.name!r} exceeded {deadline:.3f}s deadline")
            future.result()
        finally:
            pool.shutdown(wait=False, cancel_futures=True)

    def _write_descriptor(self, node: StageNode, signature: str,
                          node_dir: Path,
                          inputs: Mapping[str, Path]) -> None:
        """node.json: the full recipe, with root-relative input paths."""
        descriptor = {
            "format": DAG_FORMAT_VERSION, "name": node.name,
            "stage": node.stage, "signature": signature,
            "config": dict(node.config),
            "out_paths": dict(node.out_paths),
            "in_paths": {input_name: {"node": upstream, "output": output,
                                      "path": os.path.relpath(
                                          inputs[input_name], node_dir)}
                         for input_name, (upstream, output)
                         in sorted(node.in_paths.items())}}
        write_atomic(node_dir / "node.json",
                     json.dumps(descriptor, indent=2, sort_keys=True) + "\n")

    def _write_links(self, node: StageNode, node_dir: Path) -> None:
        """``.pred.json`` here and ``.succ.json`` updates upstream —
        both hold node-dir-relative paths, keeping the tree relocatable.
        """
        preds = {}
        for input_name, (upstream, _) in sorted(node.in_paths.items()):
            upstream_outcome = self._last_outcomes.get(upstream)
            if upstream_outcome is None or not upstream_outcome.dir:
                continue
            upstream_dir = self.root / upstream_outcome.dir
            preds[input_name] = {
                "node": upstream,
                "dir": os.path.relpath(upstream_dir, node_dir)}
            succ_path = upstream_dir / ".succ.json"
            try:
                existing = json.loads(succ_path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                existing = {}
            existing[node.name] = {
                "dir": os.path.relpath(node_dir, upstream_dir)}
            write_atomic(succ_path,
                         json.dumps(existing, indent=2, sort_keys=True) + "\n",
                         durable=False)
        write_atomic(node_dir / ".pred.json",
                     json.dumps(preds, indent=2, sort_keys=True) + "\n",
                     durable=False)

    # -- crash injection -------------------------------------------------------------

    @staticmethod
    def _maybe_crash(node: StageNode) -> None:
        """Test hook: SIGKILL this process when the env var names us.

        Fires *after* the RUNNING transition is journaled — exactly the
        window a real mid-stage crash occupies.
        """
        targets = os.environ.get(CRASH_ENV_VAR, "")
        if targets and node.name in {part.strip()
                                     for part in targets.split(",")
                                     if part.strip()}:
            os.kill(os.getpid(), signal.SIGKILL)

