"""Job profiles and job specifications.

A :class:`JobProfile` captures the *data-flow shape* of a MapReduce
application — how many bytes leave the mappers per input byte, how many
bytes the reducers write per shuffled byte, compute rates, partition
skew and (for iterative workloads) how consecutive rounds chain.  The
profile is what differentiates TeraSort from WordCount on the wire.

A :class:`JobSpec` is one concrete run: a profile plus input size and
per-run overrides.  Specs are what the cluster runtime executes and the
campaign harness sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Optional

import numpy as np

from repro.cluster.units import MB


class JobIdStream:
    """Per-kind job ids for the specs one cluster runs.

    A :class:`~repro.mapreduce.cluster.HadoopCluster` owns one stream
    and names every spec submitted without an id from it, in
    submission order: the 3rd terasort a cluster runs is always
    ``job_terasort_0003``, whatever other kinds came between and
    whatever ran earlier in the process.  The id seeds the job's RNG
    streams and HDFS paths, so a capture depends only on its cluster,
    its seed and what was submitted to it.
    """

    def __init__(self) -> None:
        self._next: Dict[str, int] = {}

    def allocate(self, kind: str) -> str:
        number = self._next.get(kind, 0) + 1
        self._next[kind] = number
        return f"job_{kind}_{number:04d}"


@dataclass(frozen=True)
class JobProfile:
    """Data-flow shape of one MapReduce application type."""

    kind: str
    map_selectivity: float = 1.0
    reduce_selectivity: float = 1.0
    map_cpu_rate: float = 100.0 * MB
    reduce_cpu_rate: float = 80.0 * MB
    merge_rate: float = 250.0 * MB
    output_replication: Optional[int] = None
    partition_skew: float = 0.0
    map_jitter_sigma: float = 0.15
    generated_bytes_per_map: Optional[float] = None
    map_only: bool = False
    iterations: int = 1
    reread_input: bool = False
    output_carryover: float = 1.0
    reducers_scale: float = 1.0  # multiplier on the configured reducer count

    def __post_init__(self) -> None:
        if self.map_selectivity < 0 or self.reduce_selectivity < 0:
            raise ValueError(f"selectivities must be >= 0 in {self.kind}")
        if self.map_cpu_rate <= 0 or self.reduce_cpu_rate <= 0 or self.merge_rate <= 0:
            raise ValueError(f"compute rates must be positive in {self.kind}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1 in {self.kind}")
        if self.partition_skew < 0:
            raise ValueError(f"partition_skew must be >= 0 in {self.kind}")

    @property
    def is_generator(self) -> bool:
        """Generator jobs (TeraGen) synthesise output instead of reading input."""
        return self.generated_bytes_per_map is not None

    def partition_weights(self, num_reducers: int,
                          rng: np.random.Generator) -> np.ndarray:
        """Per-reducer shares of every map's output.

        ``partition_skew`` is a Zipf exponent over reducer ranks; the
        rank order is shuffled per job so the heavy reducer is not
        always partition 0.  Skew 0 gives uniform shares.
        """
        if num_reducers < 1:
            raise ValueError("need at least one reducer for partition weights")
        ranks = np.arange(1, num_reducers + 1, dtype=float)
        weights = ranks ** (-self.partition_skew)
        rng.shuffle(weights)
        return weights / weights.sum()


@dataclass
class JobSpec:
    """One concrete job run."""

    profile: JobProfile
    input_bytes: float
    job_id: str = ""
    input_path: str = ""
    output_path: str = ""
    num_reducers: Optional[int] = None
    queue: str = "default"
    num_maps: Optional[int] = None  # generator jobs; derived otherwise
    seed_salt: int = 0

    def __post_init__(self) -> None:
        if self.input_bytes < 0:
            raise ValueError(f"input_bytes must be >= 0, got {self.input_bytes}")
        if self.job_id:
            self.set_id(self.job_id)

    def set_id(self, job_id: str) -> None:
        """Name the job; paths not given explicitly derive from the id.

        A spec built without an id stays unnamed (empty id and paths)
        until the cluster that runs it names it at submission.
        """
        self.job_id = job_id
        self.input_path = self.input_path or f"/data/{job_id}/input"
        self.output_path = self.output_path or f"/data/{job_id}/output"

    @property
    def kind(self) -> str:
        return self.profile.kind

    def with_overrides(self, **changes) -> "JobSpec":
        return replace(self, **changes)


# -- catalog -------------------------------------------------------------------

_REGISTRY: Dict[str, Callable[..., JobProfile]] = {}


def register_profile(kind: str):
    """Decorator: register a profile factory under a job kind."""
    def decorator(factory: Callable[..., JobProfile]):
        if kind in _REGISTRY:
            raise ValueError(f"profile {kind!r} registered twice")
        _REGISTRY[kind] = factory
        return factory
    return decorator


def job_catalog() -> Dict[str, Callable[..., JobProfile]]:
    """All registered job kinds (importing the modules registers them)."""
    _import_all_profiles()
    return dict(_REGISTRY)


def make_job(kind: str, input_gb: float, num_reducers: Optional[int] = None,
             queue: str = "default", job_id: str = "",
             **profile_overrides) -> JobSpec:
    """Uniform factory: a JobSpec for ``kind`` with ``input_gb`` of data.

    Without ``job_id`` the cluster that runs the spec names it.
    """
    _import_all_profiles()
    factory = _REGISTRY.get(kind)
    if factory is None:
        raise ValueError(f"unknown job kind {kind!r}; known: {sorted(_REGISTRY)}")
    profile = factory(**profile_overrides)
    input_bytes = input_gb * 1024 * MB
    return JobSpec(profile=profile, input_bytes=input_bytes,
                   num_reducers=num_reducers, queue=queue, job_id=job_id)


def _import_all_profiles() -> None:
    # Import for registration side effects; cheap after the first call.
    from repro.jobs import bayes, dfsio, grep, join, kmeans, nutchindexing, pagerank, sort, teragen, terasort, wordcount  # noqa: F401
