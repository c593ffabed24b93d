"""Crash-safe campaign DAGs: a checkpointed multi-stage pipeline scheduler.

The toolchain this repo reproduces is itself a pipeline — capture
Hadoop traffic, classify it, fit per-job models, replay synthetic
traces, validate, report.  This module makes the chain an explicit
DAG of stages with three properties:

**Isolation** — every node runs in its own working directory under
``<root>/nodes/<name>@<sig12>/``, where the signature is the SHA-256 of
the node's full config *plus the digests of its upstream outputs*
(the kwdagger ``ProcessNode`` pattern).  Editing one mid-DAG node's
config therefore re-keys exactly that node and its descendants;
everything upstream keeps its directory and is reused as a cache hit.

**Durability** — a node counts as complete only once its
``outputs.json`` manifest — listing each declared output's relative
path and content digest — has been atomically published; that
manifest is the pipeline's only checkpoint.  The node's ``node.json``
descriptor is written before its stage starts, so a dir holding
``node.json`` but no manifest is a node that was interrupted.
SIGKILL at any instant leaves either a complete node (reused on
resume) or an incomplete one (re-run on resume); the final artifacts
are byte-identical either way.

**Relocatability** — nothing under ``<root>`` stores an absolute path:
the ``node.json`` descriptors hold node-relative upstream paths and
the manifests hold node-relative output paths, so the whole pipeline
directory can be moved (or shipped) and a new :class:`DAGRunner`
pointed at it resumes with full cache hits.

Each node attempt runs as one task on the
:class:`~repro.experiments.supervision.SupervisedExecutor` campaign
points run on: one :class:`~repro.experiments.supervision.RetryPolicy`,
retry decision and deadline watchdog (a deadline runs registry stages
on the executor's spawn pool), and a
:class:`~repro.experiments.supervision.Quarantine` sidecar.
:meth:`DAGRunner.plan` and :meth:`DAGRunner.run` walk the topological
order through one per-node resolver (upstream digests -> signature ->
node dir -> verified ``outputs.json``), so a plan names exactly the
node dirs a run would use.  There is one failure policy, fail-fast: at
the first ``QUARANTINED`` node every later node ends ``BLOCKED`` with
a reason naming it, and the run raises :class:`PipelineFailed`, which
carries the partial result.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.experiments.store import canonical_json, write_atomic
from repro.experiments.supervision import (
    PointFailure,
    Quarantine,
    RetryPolicy,
    SupervisedExecutor,
)
from repro.obs.telemetry import Telemetry

#: Version of the signature, descriptor and manifest schemas.  Bump
#: when any changes shape; old node dirs then re-run.
DAG_FORMAT_VERSION = 1

# -- node lifecycle states ----------------------------------------------------------

DONE = "done"              #: executed this run; outputs.json published
CACHED = "cached"          #: valid outputs.json found; stage not re-run
QUARANTINED = "quarantined"  #: attempt budget exhausted; recorded in sidecar
BLOCKED = "blocked"        #: not started: an earlier node was quarantined

#: Env var naming node(s) in which to SIGKILL *this process* right
#: after the node's ``node.json`` is written — the crash-injection hook
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

    Registry stages (unlike raw ``fn=`` callables) can run in a spawn
    worker, which is what makes watchdog deadlines enforceable — the
    parent can terminate the worker mid-stage.
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
    """A named set of :class:`StageNode`\\ s with validated wiring.

    ``workers`` is how many processes a stage may fan its own work out
    to (:attr:`StageContext.workers`); it is a property of the run,
    never of a node's signature, so changing it reuses every node.
    """

    def __init__(self, name: str = "pipeline"):
        self.name = name
        self.workers = 1
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
    from a killed attempt), not artifact content, and must not make a
    resumed run's digest diverge from an uninterrupted one.
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


def _output_digests(outputs: Mapping[str, Mapping[str, Any]]
                    ) -> Dict[str, str]:
    """Output name -> content digest, from a manifest's outputs."""
    return {output: meta["digest"] for output, meta in outputs.items()}


# -- stage execution context --------------------------------------------------------


@dataclass
class StageContext:
    """What a stage function sees: its sandbox, config, and inputs.

    ``inputs`` maps each declared input name to the *resolved* path of
    the upstream artifact; ``out(name)`` returns where the declared
    output must be materialised (parents pre-created).  Stages must
    write only under ``workdir`` — that is the isolation contract.
    ``workers`` is the run's worker count (:attr:`PipelineDAG.workers`).
    """

    name: str
    workdir: Path
    config: Dict[str, Any]
    inputs: Dict[str, Path]
    out_paths: Dict[str, str]
    telemetry: Telemetry
    workers: int = 1

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


@dataclass(frozen=True)
class _StageTask:
    """One node attempt as an executor task (picklable without ``fn``)."""

    node: StageNode
    workdir: Path
    inputs: Dict[str, Path]
    workers: int


def _run_stage(task: _StageTask,
               telemetry: Telemetry) -> Dict[str, Dict[str, Any]]:
    """Run one stage attempt and digest its declared outputs.

    Module-level, so the executor can run it in a spawn worker: there a
    registry stage is looked up by name (importing the built-in stage
    definitions registers them); a raw ``fn`` only runs in-process.
    """
    node = task.node
    fn = node.fn
    if fn is None:
        if node.stage not in _STAGE_REGISTRY:
            import repro.experiments.pipelines  # noqa: F401  (registers stages)
        try:
            fn = _STAGE_REGISTRY[node.stage]
        except KeyError:
            raise PipelineDefinitionError(
                f"node {node.name!r}: stage {node.stage!r} is not "
                "registered and no fn was given") from None
    task.workdir.mkdir(parents=True, exist_ok=True)
    fn(StageContext(name=node.name, workdir=task.workdir,
                    config=dict(node.config), inputs=dict(task.inputs),
                    out_paths=dict(node.out_paths), telemetry=telemetry,
                    workers=task.workers))
    return {output: {"path": (Path("work") / relative).as_posix(),
                     "digest": digest_path(task.workdir / relative)}
            for output, relative in sorted(node.out_paths.items())}


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


class PipelineFailed(RuntimeError):
    """Raised when the run finished with quarantined/blocked nodes.
    Carries the full :class:`PipelineResult` so callers keep the
    partial work.
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

        quarantine.jsonl                 poison-node sidecar (optional)
        nodes/<name>@<sig12>/
            node.json                    descriptor, written before the stage
            work/...                     declared outputs
            outputs.json                 completion manifest (atomic)
            telemetry/                   per-node telemetry (optional)
    """

    def __init__(self, dag: PipelineDAG, root: str | Path,
                 retry_policy: Optional[RetryPolicy] = None,
                 quarantine: Optional[Quarantine] = None,
                 telemetry: Optional[Telemetry] = None,
                 node_telemetry: bool = False):
        dag.validate()
        self.dag = dag
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.quarantine = quarantine
        self.telemetry = telemetry or Telemetry.disabled()
        self.node_telemetry = node_telemetry
        self._registry = self.telemetry.registry
        self.executor = SupervisedExecutor(retry_policy or RetryPolicy(),
                                           self._registry, "pipeline")

    def _count(self, name: str, amount: float = 1) -> None:
        self._registry.counter(f"pipeline.{name}").inc(amount)

    # -- the per-node resolver -------------------------------------------------------

    def _resolve(self, node: StageNode, digests: Dict[str, Dict[str, str]]
                 ) -> Optional[Tuple[str, str, Optional[Dict[str, Any]]]]:
        """``(signature, root-relative node dir, verified cached outputs)``.

        ``digests`` maps each settled node to its output digests.  The
        cached outputs are None unless the node's ``outputs.json`` is
        present, matching and verified.  Returns None when an upstream
        digest is not known yet: that upstream has still to run.
        """
        upstream_digests: Dict[str, str] = {}
        for input_name, (upstream, output) in node.in_paths.items():
            known = digests.get(upstream, {})
            if output not in known:
                return None
            upstream_digests[input_name] = known[output]
        signature = node_signature(node, upstream_digests)
        dirname = f"nodes/{node_dirname(node.name, signature)}"
        return signature, dirname, self._cached_outputs(
            node, signature, self.root / dirname)

    def _cached_outputs(self, node: StageNode, signature: str, base: Path
                        ) -> Optional[Dict[str, Dict[str, Any]]]:
        """The completion manifest, iff present, matching and verified."""
        try:
            manifest = json.loads(
                (base / "outputs.json").read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        if (manifest.get("format") != DAG_FORMAT_VERSION
                or manifest.get("signature") != signature):
            return None
        outputs = manifest.get("outputs")
        if (not isinstance(outputs, dict)
                or set(outputs) != set(node.out_paths)):
            return None
        for meta in outputs.values():
            try:
                if digest_path(base / meta["path"]) != meta["digest"]:
                    return None
            except (StageOutputMissing, OSError, KeyError, TypeError):
                return None
        return outputs

    # -- planning --------------------------------------------------------------------

    def plan(self) -> List[Dict[str, Any]]:
        """The topological execution plan with cache hits resolved.

        Each entry says whether the node would be reused (``cached``),
        executed (``run``), re-run after a start that never committed
        (``interrupted`` — ``node.json`` but no ``outputs.json``; an
        invalid manifest plans as ``run``), or cannot be decided yet
        because an upstream must run first (``stale-upstream`` — its
        signature depends on output bytes that do not exist yet).
        """
        entries: List[Dict[str, Any]] = []
        digests: Dict[str, Dict[str, str]] = {}
        for name in self.dag.topological_order():
            node = self.dag.node(name)
            entry = {"node": name, "stage": node.stage,
                     "after": node.predecessors(),
                     "signature": "", "dir": "", "action": "stale-upstream"}
            resolved = self._resolve(node, digests)
            if resolved is not None:
                signature, dirname, cached = resolved
                entry.update(signature=signature, dir=dirname)
                node_dir = self.root / dirname
                if cached is not None:
                    entry["action"] = "cached"
                    digests[name] = _output_digests(cached)
                elif ((node_dir / "node.json").is_file()
                      and not (node_dir / "outputs.json").exists()):
                    entry["action"] = "interrupted"
                else:
                    entry["action"] = "run"
            entries.append(entry)
        return entries

    # -- running ---------------------------------------------------------------------

    def run(self) -> PipelineResult:
        """Execute the DAG in topological order, reusing verified nodes.

        Fail-fast: once a node is quarantined, every later node is
        recorded ``BLOCKED`` and :class:`PipelineFailed` is raised.
        """
        result = PipelineResult(self.root, self.dag.name)
        digests: Dict[str, Dict[str, str]] = {}
        failed: Optional[str] = None
        self._count("runs")
        for name in self.dag.topological_order():
            node = self.dag.node(name)
            if failed is not None:
                outcome = NodeOutcome(name=name, stage=node.stage,
                                      state=BLOCKED,
                                      reason=f"stopped at quarantined "
                                             f"node {failed}")
            else:
                resolved = self._resolve(node, digests)
                assert resolved is not None, \
                    "topological order guarantees resolved upstream digests"
                signature, dirname, cached = resolved
                if cached is not None:
                    outcome = NodeOutcome(name=name, stage=node.stage,
                                          state=CACHED, signature=signature,
                                          dir=dirname, outputs=cached)
                else:
                    outcome = self._execute(node, signature, dirname, result)
                if outcome.state == QUARANTINED:
                    failed = name
                else:
                    digests[name] = _output_digests(outcome.outputs)
            result.record(outcome)
            self._count({DONE: "executed", CACHED: "cache_hits"}.get(
                outcome.state, outcome.state))
        if failed is not None:
            raise PipelineFailed(result)
        return result

    # -- single-node execution -------------------------------------------------------

    def _execute(self, node: StageNode, signature: str, dirname: str,
                 result: PipelineResult) -> NodeOutcome:
        """Run one node as a single executor task and commit it."""
        node_dir = self.root / dirname
        inputs = self._resolve_inputs(node, result)
        self._write_descriptor(node, signature, node_dir, inputs)
        self._maybe_crash(node)
        telemetry = (Telemetry.enabled_in_memory() if self.node_telemetry
                     else Telemetry.disabled())
        task = _StageTask(node, node_dir / "work", dict(inputs),
                          self.dag.workers)
        settled: List[Tuple[int, Dict[str, Dict[str, Any]]]] = []
        # A raw fn cannot cross a process boundary, so it runs
        # in-process (and its deadline goes unenforced).
        spent = self.executor.run(
            _run_stage, [(signature, task)], telemetry,
            lambda ledger, outputs: settled.append((ledger.attempts + 1,
                                                    outputs)),
            isolate=node.fn is None and self.executor.isolates(1))
        if spent:
            (ledger,) = spent
            failure = ledger.failure(f"{self.dag.name}/{node.name}")
            result.failures.append(failure)
            if self.quarantine is not None:
                self.quarantine.record(failure)
            return NodeOutcome(name=node.name, stage=node.stage,
                               state=QUARANTINED, signature=signature,
                               dir=dirname, attempts=ledger.attempts,
                               reason=ledger.fingerprints[-1].short())

        ((attempt, outputs),) = settled
        if self.node_telemetry:
            from repro.obs.export import write_telemetry

            write_telemetry(telemetry, node_dir / "telemetry")
        manifest = {"format": DAG_FORMAT_VERSION, "node": node.name,
                    "stage": node.stage, "signature": signature,
                    "attempt": attempt, "outputs": outputs}
        # Publishing outputs.json is the commit point: it is written
        # atomically and durably *after* every output digest is taken,
        # so a manifest on disk always describes complete outputs.
        write_atomic(node_dir / "outputs.json",
                     json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        return NodeOutcome(name=node.name, stage=node.stage, state=DONE,
                           signature=signature, dir=dirname,
                           attempts=attempt, outputs=outputs)

    def _resolve_inputs(self, node: StageNode,
                        result: PipelineResult) -> Dict[str, Path]:
        """Input name -> absolute path of the upstream artifact.

        Only called after every upstream settled (DONE or CACHED) this
        run, so the upstream outcomes' dirs are authoritative.
        """
        resolved: Dict[str, Path] = {}
        for input_name, (upstream, output) in node.in_paths.items():
            outcome = result.outcomes[upstream]
            resolved[input_name] = (self.root / outcome.dir
                                    / outcome.outputs[output]["path"])
        return resolved

    def _write_descriptor(self, node: StageNode, signature: str,
                          node_dir: Path,
                          inputs: Mapping[str, Path]) -> None:
        """node.json: the full recipe, with node-relative input paths.

        Written before the first attempt, so a node dir holding it but
        no ``outputs.json`` marks a node that was interrupted.
        """
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

    # -- crash injection -------------------------------------------------------------

    @staticmethod
    def _maybe_crash(node: StageNode) -> None:
        """Test hook: SIGKILL this process when the env var names us.

        Fires *after* ``node.json`` is written — exactly the window a
        real mid-stage crash occupies.
        """
        targets = os.environ.get(CRASH_ENV_VAR, "")
        if targets and node.name in {part.strip()
                                     for part in targets.split(",")
                                     if part.strip()}:
            os.kill(os.getpid(), signal.SIGKILL)

