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

Captures resolve through a two-level cache: a bounded process-local
LRU memo (fast path for benchmarks sharing inputs within one process)
backed by the optional persistent content-addressed store
(:mod:`repro.experiments.store`), shared across processes and runs.
Both levels key off the same canonical capture-point dict
(:meth:`~repro.experiments.runner.CapturePoint.key_dict`), so they can
never disagree about what "the same capture" means.  The store is
enabled by :func:`set_store` or the ``KEDDAH_CAPTURE_STORE``
environment variable.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.capture.records import JobTrace
from repro.cluster.config import ClusterSpec, HadoopConfig
from repro.cluster.units import MB
from repro.mapreduce.result import JobResult
from repro.experiments.store import CaptureStore, store_from_env

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

# Level 2: the persistent store.  ``False`` = not yet resolved (lazy
# env lookup on first use); ``None`` = explicitly disabled.
_STORE: Any = False


def get_store() -> Optional[CaptureStore]:
    """The active persistent store (lazily from ``KEDDAH_CAPTURE_STORE``)."""
    global _STORE
    if _STORE is False:
        _STORE = store_from_env()
    return _STORE


def set_store(store: Optional[CaptureStore]) -> Optional[CaptureStore]:
    """Install (or disable, with ``None``) the persistent capture store."""
    global _STORE
    _STORE = store
    return store


def cache_stats() -> Dict[str, Any]:
    """Both cache levels' counters in one observable dict."""
    stats: Dict[str, Any] = {"memo": _MEMO.stats()}
    store = get_store()
    if store is not None:
        stats["store"] = {name: int(store.registry.value(f"store.{name}"))
                          for name in ("hits", "misses", "writes")}
    return stats


def clear_cache() -> None:
    """Drop memoised captures (tests use this to force re-simulation).

    Only the in-memory level is dropped; the persistent store — when
    one is configured — is cleared explicitly via
    ``CaptureStore.clear`` (CLI: ``keddah store clear``).
    """
    _MEMO.clear()


def make_runner(workers: int = 1, telemetry=None, **supervision):
    """A CampaignRunner wired to the process memo and active store.

    ``supervision`` passes through the runner's fault-tolerance knobs
    (``retry_policy``, ``quarantine`` — see
    :class:`repro.experiments.runner.CampaignRunner`).
    """
    from repro.experiments.runner import CampaignRunner

    return CampaignRunner(store=get_store(), workers=workers,
                          memo_get=_MEMO.get, memo_put=_MEMO.put,
                          telemetry=telemetry, **supervision)


# -- capture entry points ------------------------------------------------------------


def capture(job: str, input_gb: float, seed: int = DEFAULT_SEED,
            campaign: Optional[CampaignConfig] = None,
            **job_kwargs) -> Tuple[JobResult, JobTrace]:
    """One cached capture run: (result, trace)."""
    from repro.experiments.runner import CapturePoint

    campaign = campaign or CampaignConfig()
    point = CapturePoint.from_campaign(job, input_gb, seed, campaign,
                                       job_kwargs)
    return make_runner().run_point(point)


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
    return [trace for _, trace in make_runner(workers).run(points)]


def capture_plan(plan: str, params: Optional[Dict[str, Any]] = None,
                 seed: int = DEFAULT_SEED,
                 campaign: Optional[CampaignConfig] = None,
                 ) -> Tuple[Any, JobTrace]:
    """One cached workload-plan capture run: (PlanResult, trace).

    Plans resolve through the same memo/store hierarchy as single
    jobs; their store keys carry a ``plan`` block (name, parameters,
    structural signature), so they can never alias a single-job entry.
    """
    from repro.experiments.runner import PlanPoint

    campaign = campaign or CampaignConfig()
    point = PlanPoint.from_campaign(plan, seed, campaign, params)
    return make_runner().run_point(point)
