"""Canonical campaign parameters and the capture cache hierarchy.

The paper's evaluation axes are job type × input size × cluster
configuration.  The defaults here pick magnitudes that keep every
experiment regenerable in seconds while preserving the ratios that
matter (blocks per input, reducers per node, oversubscription):

* 8 worker nodes in 2 racks, 1 Gbit/s access links,
* 32 MiB blocks (so a 1 GiB input has 32 splits, as a 4 GiB input
  would at 128 MiB),
* 4 reducers, replication 3, FIFO scheduler,
* input sizes {0.25, 0.5, 1, 2} GiB,
* the five-job HiBench-style mix.

Captures resolve through :func:`resolve_points`, the one place that
decides how a point is obtained: a bounded process-local LRU memo
(fast path for experiments sharing inputs within one process), then
the optional persistent content-addressed store
(:mod:`repro.experiments.store`) named by ``KEDDAH_CAPTURE_STORE``,
then simulation.  The environment variable is read on every call.
Both levels key off the same canonical capture-point dict
(:meth:`~repro.experiments.runner.CapturePoint.key_dict`), so they can
never disagree about what "the same capture" means.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.capture.records import JobTrace
from repro.cluster.config import ClusterSpec, HadoopConfig
from repro.cluster.units import MB
from repro.mapreduce.result import JobResult
from repro.experiments.store import store_from_env

DEFAULT_JOBS = ["terasort", "wordcount", "grep", "pagerank", "kmeans"]
DEFAULT_SIZES_GB = [0.25, 0.5, 1.0, 2.0]
DEFAULT_SEED = 42

#: Cap on memoised captures held in memory.  Long sweeps (hundreds of
#: points) would otherwise pin every trace; evicted entries remain one
#: store read away when a persistent store is configured.
MEMO_CAPACITY = 256


@dataclass(frozen=True)
class CampaignConfig:
    """One point in the experiment space."""

    nodes: int = 8
    hosts_per_rack: int = 4
    block_mb: int = 32
    num_reducers: int = 4
    replication: int = 3
    scheduler: str = "fifo"
    slowstart: float = 0.05
    topology: str = "tree"
    oversubscription: float = 1.0
    containers_per_node: int = 4
    speculative: bool = False
    backend: str = "fluid"
    placement_mode: str = "grant"

    def cluster_spec(self) -> ClusterSpec:
        return ClusterSpec(num_nodes=self.nodes,
                           hosts_per_rack=self.hosts_per_rack,
                           topology=self.topology,
                           oversubscription=self.oversubscription,
                           containers_per_node=self.containers_per_node,
                           backend=self.backend)

    def hadoop_config(self) -> HadoopConfig:
        return HadoopConfig(block_size=self.block_mb * MB,
                            num_reducers=self.num_reducers,
                            replication=self.replication,
                            scheduler=self.scheduler,
                            slowstart=self.slowstart,
                            speculative=self.speculative,
                            placement_mode=self.placement_mode)

    def to_dict(self) -> Dict[str, Any]:
        """Canonical field dict: explicit values, stable key order.

        This — not ``__dict__`` — is the cache-key source, shared by
        the in-memory memo and the on-disk store's SHA-256 address.
        """
        return {
            "nodes": self.nodes,
            "hosts_per_rack": self.hosts_per_rack,
            "block_mb": self.block_mb,
            "num_reducers": self.num_reducers,
            "replication": self.replication,
            "scheduler": self.scheduler,
            "slowstart": self.slowstart,
            "topology": self.topology,
            "oversubscription": self.oversubscription,
            "containers_per_node": self.containers_per_node,
            "speculative": self.speculative,
            "backend": self.backend,
            "placement_mode": self.placement_mode,
        }


# -- the process-local memo (level 1) ------------------------------------------------


class _LruMemo:
    """Insertion-bounded LRU over capture keys (observable, clearable)."""

    def __init__(self, capacity: int = MEMO_CAPACITY):
        self.capacity = capacity
        self._entries: "OrderedDict[str, Tuple[JobResult, JobTrace]]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: str) -> Optional[Tuple[JobResult, JobTrace]]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: str, value: Tuple[JobResult, JobTrace]) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> Dict[str, int]:
        return {"entries": len(self._entries), "capacity": self.capacity,
                "hits": self.hits, "misses": self.misses,
                "evictions": self.evictions}


_MEMO = _LruMemo()


def clear_cache() -> None:
    """Drop memoised captures (tests use this to force re-simulation).

    Only the in-memory level is dropped; the persistent store — when
    one is configured — is cleared explicitly via
    ``CaptureStore.clear`` (CLI: ``keddah store clear``).
    """
    _MEMO.clear()


def resolve_points(points: Sequence[Any], workers: int = 1,
                   ) -> List[Tuple[Any, JobTrace]]:
    """(result, trace) per point, in order: memo, store, then simulation.

    Memo misses go to one :class:`~repro.experiments.runner.
    CampaignRunner` on the store ``KEDDAH_CAPTURE_STORE`` names (read
    now, not at import), which fans simulation out over ``workers``
    processes; every resolved point then enters the memo.
    """
    from repro.experiments.runner import CampaignRunner

    keys = [point.key() for point in points]
    results = [_MEMO.get(key) for key in keys]
    missing = [index for index, hit in enumerate(results) if hit is None]
    if missing:
        runner = CampaignRunner(store=store_from_env(), workers=workers)
        outcomes = runner.run([points[index] for index in missing])
        for index, outcome in zip(missing, outcomes):
            _MEMO.put(keys[index], outcome)
            results[index] = outcome
    return results  # type: ignore[return-value]


# -- capture entry points ------------------------------------------------------------


def capture(job: str, input_gb: float, seed: int = DEFAULT_SEED,
            campaign: Optional[CampaignConfig] = None,
            **job_kwargs) -> Tuple[JobResult, JobTrace]:
    """One cached capture run: (result, trace)."""
    from repro.experiments.runner import CapturePoint

    campaign = campaign or CampaignConfig()
    point = CapturePoint.from_campaign(job, input_gb, seed, campaign,
                                       job_kwargs)
    return resolve_points([point])[0]


def capture_campaign(job: str, sizes_gb: Optional[List[float]] = None,
                     seed: int = DEFAULT_SEED,
                     campaign: Optional[CampaignConfig] = None,
                     workers: int = 1,
                     **job_kwargs) -> List[JobTrace]:
    """Traces of one job kind across the size sweep (cached per size).

    Seeds derive per size via :func:`repro.experiments.runner.
    derive_seed`, so runs are independent yet reproducible from
    ``seed``; ``workers > 1`` fans cache-miss points out across
    processes with flow-for-flow identical output.
    """
    from repro.experiments.runner import CapturePoint, derive_seed

    sizes_gb = sizes_gb or DEFAULT_SIZES_GB
    campaign = campaign or CampaignConfig()
    points = [CapturePoint.from_campaign(job, gb, derive_seed(seed, index),
                                         campaign, job_kwargs)
              for index, gb in enumerate(sizes_gb)]
    return [trace for _, trace in resolve_points(points, workers)]


def capture_plan(plan: str, params: Optional[Dict[str, Any]] = None,
                 seed: int = DEFAULT_SEED,
                 campaign: Optional[CampaignConfig] = None,
                 ) -> Tuple[Any, JobTrace]:
    """One cached workload-plan capture run: (PlanResult, trace).

    Plans resolve through :func:`resolve_points`, as single jobs do;
    their store keys carry a ``plan`` block (name, parameters,
    structural signature), so they can never alias a single-job entry.
    """
    from repro.experiments.runner import PlanPoint

    campaign = campaign or CampaignConfig()
    point = PlanPoint.from_campaign(plan, seed, campaign, params)
    return resolve_points([point])[0]
