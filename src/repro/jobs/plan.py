"""Workload plans: multi-stage DAG jobs as first-class workloads.

A :class:`WorkloadPlan` is a DAG of :class:`PlanStage` nodes.  Each
stage is one MapReduce job (any catalog kind); its input is either
*external* bytes (root stages, ``input_gb``) or the HDFS output of one
or more upstream stages (:class:`PlanEdge`, with a per-edge
``carryover`` fraction selecting how much of the upstream output the
stage consumes).  This is the shape of real chained Hadoop workloads —
Pig/Hive query plans and benchmark suites like TPCx-HS — whose network
behaviour measurably differs from isolated MapReduce jobs: cross-stage
data travels through the real HDFS write/read path, so it shows up on
the wire as replication-pipeline and split-read traffic.

Determinism
-----------
Plans carry no run state: stage job ids derive from the
plan signature (a SHA-256 over the canonical plan dict) plus the stage
name, so every stage gets its own deterministic RNG streams
(``job.<job_id>.r<k>``) from the cluster seed regardless of execution
order or how many plans ran before it in the process.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple


def _freeze(mapping: Optional[Mapping[str, Any]]) -> Tuple[Tuple[str, Any], ...]:
    if not mapping:
        return ()
    return tuple(sorted(mapping.items()))


@dataclass(frozen=True)
class PlanEdge:
    """One dependency edge: this stage reads ``source``'s HDFS output.

    ``carryover`` is the fraction of the upstream output the stage
    consumes (0 < carryover <= 1).  Selection is file-granular: the
    executor picks a deterministic sorted prefix of the upstream part
    files whose cumulative size first reaches the fraction, mirroring
    how a downstream job would list and read a subset of partitions.
    """

    source: str
    carryover: float = 1.0

    def __post_init__(self) -> None:
        if not self.source:
            raise ValueError("plan edge needs a source stage name")
        if not (0.0 < self.carryover <= 1.0):
            raise ValueError(
                f"carryover must be in (0, 1], got {self.carryover} "
                f"(edge from {self.source!r})")

    def to_dict(self) -> Dict[str, Any]:
        return {"source": self.source, "carryover": self.carryover}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PlanEdge":
        return cls(source=data["source"],
                   carryover=float(data.get("carryover", 1.0)))


@dataclass(frozen=True)
class PlanStage:
    """One job in a plan: a catalog kind plus how it gets its input.

    Root stages (no ``inputs``) declare external ``input_gb`` —
    preloaded into HDFS for readers, synthesised on the fly for
    generator kinds (teragen).  Derived stages leave ``input_gb`` unset;
    their input size is whatever their upstream edges deliver.
    """

    name: str
    kind: str
    input_gb: Optional[float] = None
    inputs: Tuple[PlanEdge, ...] = ()
    num_reducers: Optional[int] = None
    queue: str = "default"
    profile_overrides: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("plan stage needs a name")
        if "/" in self.name or "." in self.name:
            raise ValueError(
                f"stage name {self.name!r} may not contain '/' or '.' "
                "(it becomes part of HDFS paths and job ids)")
        if self.inputs and self.input_gb is not None:
            raise ValueError(
                f"stage {self.name!r} declares both upstream inputs and "
                "external input_gb; pick one")
        if not self.inputs and self.input_gb is None:
            raise ValueError(
                f"root stage {self.name!r} needs external input_gb")
        if self.input_gb is not None and self.input_gb <= 0:
            raise ValueError(
                f"stage {self.name!r}: input_gb must be > 0")
        sources = [edge.source for edge in self.inputs]
        if len(set(sources)) != len(sources):
            raise ValueError(
                f"stage {self.name!r} reads the same upstream twice")

    @property
    def is_root(self) -> bool:
        return not self.inputs

    def dep_names(self) -> List[str]:
        return [edge.source for edge in self.inputs]

    def overrides(self) -> Dict[str, Any]:
        return dict(self.profile_overrides)

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "kind": self.kind,
                "input_gb": self.input_gb,
                "inputs": [edge.to_dict() for edge in self.inputs],
                "num_reducers": self.num_reducers,
                "queue": self.queue,
                "profile_overrides": dict(self.profile_overrides)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PlanStage":
        return cls(name=data["name"], kind=data["kind"],
                   input_gb=data.get("input_gb"),
                   inputs=tuple(PlanEdge.from_dict(edge)
                                for edge in data.get("inputs", ())),
                   num_reducers=data.get("num_reducers"),
                   queue=data.get("queue", "default"),
                   profile_overrides=_freeze(data.get("profile_overrides")))


@dataclass(frozen=True)
class WorkloadPlan:
    """A named DAG of stages, ready for the plan executor.

    ``params`` records what the registry factory was called with (so
    captures can report e.g. the TPCx-HS scale factor); ``score_rule``
    names an optional scoring rule the analysis layer applies
    (``"hsph"`` for TPCx-HS-style GB-per-hour scores).
    """

    name: str
    stages: Tuple[PlanStage, ...]
    params: Tuple[Tuple[str, Any], ...] = ()
    score_rule: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("plan needs a name")
        if not self.stages:
            raise ValueError(f"plan {self.name!r} has no stages")
        names = [stage.name for stage in self.stages]
        if len(set(names)) != len(names):
            raise ValueError(f"plan {self.name!r} has duplicate stage names")
        known = set(names)
        for stage in self.stages:
            for dep in stage.dep_names():
                if dep not in known:
                    raise ValueError(
                        f"plan {self.name!r}: stage {stage.name!r} reads "
                        f"unknown stage {dep!r}")
                if dep == stage.name:
                    raise ValueError(
                        f"plan {self.name!r}: stage {stage.name!r} reads "
                        "itself")
        self.topological_order()  # raises on cycles

    # -- structure ------------------------------------------------------------------

    def stage(self, name: str) -> PlanStage:
        for stage in self.stages:
            if stage.name == name:
                return stage
        raise KeyError(f"plan {self.name!r} has no stage {name!r}")

    def roots(self) -> List[PlanStage]:
        return [stage for stage in self.stages if stage.is_root]

    def topological_order(self) -> List[PlanStage]:
        """Stages in dependency order (declaration order breaks ties)."""
        remaining = {stage.name: set(stage.dep_names())
                     for stage in self.stages}
        order: List[PlanStage] = []
        while remaining:
            ready = [stage for stage in self.stages
                     if stage.name in remaining
                     and not remaining[stage.name]]
            if not ready:
                cyclic = sorted(remaining)
                raise ValueError(
                    f"plan {self.name!r} has a dependency cycle among "
                    f"{cyclic}")
            for stage in ready:
                order.append(stage)
                del remaining[stage.name]
                for deps in remaining.values():
                    deps.discard(stage.name)
        return order

    @property
    def external_gb(self) -> float:
        """Total external input across root stages, in GiB."""
        return sum(stage.input_gb or 0.0 for stage in self.stages)

    # -- identity -------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Canonical plan dict — the signature (and store-key) source."""
        return {
            "name": self.name,
            "stages": [stage.to_dict() for stage in self.stages],
            "params": dict(self.params),
            "score_rule": self.score_rule,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WorkloadPlan":
        """Rebuild a plan from :meth:`to_dict` output."""
        return cls(name=data["name"],
                   stages=tuple(PlanStage.from_dict(stage)
                                for stage in data["stages"]),
                   params=_freeze(data.get("params")),
                   score_rule=data.get("score_rule", ""))

    def signature(self) -> str:
        """SHA-256 of the canonical plan dict (stage ids derive from it)."""
        payload = json.dumps(self.to_dict(), sort_keys=True,
                             separators=(",", ":"), default=str)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# -- the plan catalog ----------------------------------------------------------------

_PLAN_REGISTRY: Dict[str, Callable[..., WorkloadPlan]] = {}


def register_plan(name: str):
    """Decorator: register a plan factory under a plan name."""
    def decorator(factory: Callable[..., WorkloadPlan]):
        if name in _PLAN_REGISTRY:
            raise ValueError(f"plan {name!r} registered twice")
        _PLAN_REGISTRY[name] = factory
        return factory
    return decorator


def plan_catalog() -> Dict[str, Callable[..., WorkloadPlan]]:
    """All registered plan factories, by name."""
    return dict(_PLAN_REGISTRY)


def make_plan(name: str, **params: Any) -> WorkloadPlan:
    """Uniform factory: a built-in plan by name, parameterised."""
    factory = _PLAN_REGISTRY.get(name)
    if factory is None:
        raise ValueError(
            f"unknown plan {name!r}; known: {sorted(_PLAN_REGISTRY)}")
    try:
        return factory(**params)
    except TypeError as exc:
        raise ValueError(f"plan {name!r}: bad parameters: {exc}") from exc


# -- built-in plans ------------------------------------------------------------------


@register_plan("pig-aggregation")
def pig_aggregation(input_gb: float = 1.0,
                    num_reducers: Optional[int] = None) -> WorkloadPlan:
    """Pig/Hive-style query plan: two scans feeding a join, then a sort.

    Two root scans read the same external volume — a selective filter
    (grep) and a combiner-driven aggregation (wordcount) — and their
    outputs meet in a reduce-side join whose result is totally ordered
    by a final sort.  The fan-in stage starts only once *both* roots
    have committed their HDFS output, while the roots themselves are
    admitted concurrently under the YARN scheduler, which is exactly
    the traffic pattern that distinguishes Pig chains from isolated
    MapReduce jobs.
    """
    return WorkloadPlan(
        name="pig-aggregation",
        params=_freeze({"input_gb": input_gb}),
        stages=(
            PlanStage(name="extract", kind="grep", input_gb=input_gb,
                      num_reducers=num_reducers),
            PlanStage(name="aggregate", kind="wordcount", input_gb=input_gb,
                      num_reducers=num_reducers),
            PlanStage(name="join", kind="join",
                      inputs=(PlanEdge("extract"), PlanEdge("aggregate")),
                      num_reducers=num_reducers),
            PlanStage(name="order", kind="sort",
                      inputs=(PlanEdge("join"),),
                      num_reducers=num_reducers),
        ))


@register_plan("tpcx-hs")
def tpcx_hs(scale: float = 1.0,
            num_reducers: Optional[int] = None) -> WorkloadPlan:
    """TPCx-HS-style harness: HSGen → HSSort → HSValidate.

    ``scale`` is the dataset size in GiB (the benchmark's scale factors
    are TB-denominated; GiB keeps simulated runs tractable while
    preserving the phase structure).  HSGen synthesises the dataset
    (pure replication-pipeline traffic), HSSort is the full
    shuffle-heavy sort over it, and HSValidate re-reads the sorted
    output in a map-only scan that writes a tiny report.  The capture
    reports a single HSph-style score — scale over elapsed hours — on
    top of the per-phase network breakdowns.
    """
    return WorkloadPlan(
        name="tpcx-hs",
        params=_freeze({"scale": scale}),
        score_rule="hsph",
        stages=(
            PlanStage(name="hsgen", kind="teragen", input_gb=scale,
                      num_reducers=num_reducers),
            PlanStage(name="hssort", kind="terasort",
                      inputs=(PlanEdge("hsgen"),),
                      num_reducers=num_reducers),
            PlanStage(name="hsvalidate", kind="grep",
                      inputs=(PlanEdge("hssort"),),
                      profile_overrides=_freeze({"map_only": True})),
        ))
