"""The NameNode: namespace, block map and replica selection."""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.cluster.topology import Host
from repro.hdfs.blocks import Block, BlockLocation
from repro.hdfs.placement import DefaultPlacementPolicy, PlacementPolicy
from repro.obs.telemetry import Telemetry


class BlockLostError(RuntimeError):
    """Raised when a block has no live replica left."""


class NameNode:
    """In-memory HDFS namespace and block manager.

    Runs on ``host`` (the cluster master).  Keeps ``path → [Block]`` and
    ``block → BlockLocation``; allocates new blocks through the
    placement policy and answers locality-sorted replica queries for
    readers.
    """

    def __init__(self, host: Host, datanodes: Sequence[Host],
                 policy: Optional[PlacementPolicy] = None,
                 rng: Optional[np.random.Generator] = None,
                 telemetry: Optional[Telemetry] = None,
                 seed: Optional[int] = None):
        if not datanodes:
            raise ValueError("NameNode needs at least one DataNode")
        self.host = host
        self.datanodes = list(datanodes)
        self.policy = policy or DefaultPlacementPolicy()
        self.rng = rng if rng is not None else np.random.default_rng(0)
        # Placement/read-tie decisions draw from per-key generators
        # derived from ``seed`` + a stable content key (path, block
        # index, occurrence count) instead of one shared stream, so the
        # chosen replicas do not depend on *request order* — which
        # varies with transport-backend timing while the keys do not.
        # ``seed=None`` (stand-alone NameNodes in unit tests) falls
        # back to the shared order-dependent stream.
        self._seed = seed
        self._draw_counts: Dict[str, int] = {}
        # The NameNode holds no simulator reference, so the cluster
        # hands it the telemetry facade explicitly.
        self.telemetry = telemetry if telemetry is not None else Telemetry.disabled()
        registry = self.telemetry.registry
        self._c_files_created = registry.counter("hdfs.nn.files_created")
        self._c_blocks_allocated = registry.counter("hdfs.nn.blocks_allocated")
        self._c_replica_reads = registry.counter("hdfs.nn.replica_reads")
        self._files: Dict[str, List[Block]] = {}
        self._locations: Dict[int, BlockLocation] = {}
        # Per-namespace block ids: read-path port tags embed the block
        # id, so it must not depend on process history.
        self._block_ids = itertools.count(1)
        self._dead: set = set()
        self._decommissioning: set = set()

    def _keyed_rng(self, key: str) -> np.random.Generator:
        """Per-decision generator: f(seed, key, occurrence) — not order.

        Repeated draws for one key stay independent (the occurrence
        count feeds the spawn key), yet any two distinct decisions never
        share a stream, so the outcome of one can never shift another's.
        """
        if self._seed is None:
            return self.rng
        count = self._draw_counts.get(key, 0)
        self._draw_counts[key] = count + 1
        from repro.simkit.rng import stable_hash
        sequence = np.random.SeedSequence(
            entropy=self._seed, spawn_key=(stable_hash(key), count))
        return np.random.default_rng(sequence)

    # -- namespace ------------------------------------------------------------

    def exists(self, path: str) -> bool:
        return path in self._files

    def create_file(self, path: str) -> None:
        if path in self._files:
            raise FileExistsError(f"HDFS path already exists: {path}")
        self._files[path] = []
        self._c_files_created.value += 1

    def delete_file(self, path: str) -> None:
        blocks = self._files.pop(path, None)
        if blocks is None:
            raise FileNotFoundError(path)
        for block in blocks:
            del self._locations[block.block_id]

    def list_files(self) -> List[str]:
        return sorted(self._files)

    def file_size(self, path: str) -> int:
        return sum(block.size for block in self.blocks_of(path))

    def blocks_of(self, path: str) -> List[Block]:
        blocks = self._files.get(path)
        if blocks is None:
            raise FileNotFoundError(path)
        return list(blocks)

    # -- liveness ---------------------------------------------------------------

    @property
    def live_datanodes(self) -> List[Host]:
        """DataNodes usable as placement targets.

        Excludes dead nodes and nodes being decommissioned — a
        decommissioning node still *serves* its replicas (reads keep
        working during the drain) but receives no new ones.
        """
        return [host for host in self.datanodes
                if host not in self._dead and host not in self._decommissioning]

    def start_decommission(self, host: Host) -> List[BlockLocation]:
        """Begin draining ``host``: no new placements; return its blocks.

        Unlike :meth:`mark_dead`, replicas on the host stay readable —
        the caller re-replicates them elsewhere (with traffic) and then
        calls :meth:`finish_decommission`.
        """
        self._decommissioning.add(host)
        return self.blocks_on(host)

    def finish_decommission(self, host: Host) -> None:
        """Complete the drain: drop the host's replicas and retire it."""
        self._decommissioning.discard(host)
        self._dead.add(host)
        for location in self._locations.values():
            if host in location.replicas:
                location.replicas.remove(host)

    def is_decommissioning(self, host: Host) -> bool:
        return host in self._decommissioning

    def is_dead(self, host: Host) -> bool:
        return host in self._dead

    def mark_dead(self, host: Host) -> List[BlockLocation]:
        """Record a DataNode failure; return now-under-replicated blocks.

        The dead host is removed from every replica set (mirroring the
        NameNode pruning a lost DN's block reports).  Blocks whose last
        replica died stay registered with an empty replica list —
        readers get :class:`BlockLostError`.
        """
        self._dead.add(host)
        under_replicated = []
        for location in self._locations.values():
            if host in location.replicas:
                location.replicas.remove(host)
                under_replicated.append(location)
        return under_replicated

    def choose_rereplication(self, location: BlockLocation
                             ) -> Optional[tuple]:
        """Pick a (source, target) pair to restore one lost replica.

        Returns ``None`` when no live source or no spare target exists.
        """
        sources = [replica for replica in location.replicas
                   if replica not in self._dead]
        if not sources:
            return None
        candidates = [host for host in self.live_datanodes
                      if host not in location.replicas]
        if not candidates:
            return None
        source = sources[int(self.rng.integers(len(sources)))]
        target = self.policy.choose_targets(candidates, 1, None, self.rng)[0]
        location.replicas.append(target)
        return source, target

    # -- block management -----------------------------------------------------

    def allocate_block(self, path: str, size: int, replication: int,
                       writer: Optional[Host]) -> BlockLocation:
        """Append a block to ``path`` and choose its replica pipeline."""
        blocks = self._files.get(path)
        if blocks is None:
            raise FileNotFoundError(path)
        live = self.live_datanodes
        if not live:
            raise RuntimeError("no live DataNodes to place a block on")
        if writer is not None and writer in self._dead:
            writer = None
        block = Block(path=path, index=len(blocks), size=size,
                      block_id=next(self._block_ids))
        targets = self.policy.choose_targets(
            live, replication, writer,
            self._keyed_rng(f"place:{path}:{len(blocks)}"))
        location = BlockLocation(block=block, replicas=targets)
        blocks.append(block)
        self._locations[block.block_id] = location
        self._c_blocks_allocated.value += 1
        return location

    def locate(self, block: Block) -> BlockLocation:
        location = self._locations.get(block.block_id)
        if location is None:
            raise KeyError(f"unknown block {block!r}")
        return location

    def locate_file(self, path: str) -> List[BlockLocation]:
        return [self.locate(block) for block in self.blocks_of(path)]

    def choose_replica_for_read(self, block: Block, reader: Host) -> Host:
        """Closest *live* replica: node-local, then rack-local, then any.

        Ties are broken with the NameNode RNG, matching HDFS's random
        pick among equally distant replicas.  Raises
        :class:`BlockLostError` when every replica is dead.
        """
        replicas = [replica for replica in self.locate(block).replicas
                    if replica not in self._dead]
        if not replicas:
            raise BlockLostError(f"all replicas of {block!r} are dead")
        self._c_replica_reads.value += 1
        if reader in replicas:
            return reader
        rack_local = [replica for replica in replicas if replica.rack == reader.rack]
        pool = rack_local or replicas
        rng = self._keyed_rng(
            f"read:{block.path}:{block.index}:{reader.name}")
        return pool[int(rng.integers(len(pool)))]

    # -- statistics -----------------------------------------------------------

    def blocks_on(self, host: Host) -> List[BlockLocation]:
        """All block locations holding a replica on ``host``."""
        return [location for location in self._locations.values()
                if host in location.replicas]

