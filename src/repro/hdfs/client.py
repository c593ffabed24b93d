"""The DFS client: write pipelines, reads and bulk pre-loading.

This is where HDFS's network footprint is actually produced:

* :meth:`DfsClient.write_file` splits data into blocks and, per block,
  drives the replication pipeline — one flow per pipeline hop, each
  carrying the full block.  A writer that holds one of the block's
  replicas writes it through its local disk and heads the pipeline
  (Hadoop writes replica 1 locally), so with replication *r* a task's
  output puts *r − 1* block copies on the wire.
* :meth:`DfsClient.read_block` asks the NameNode for the closest
  replica; node-local reads stay on the disk, others become one
  DataNode→reader flow capped at the serving disk's read rate.
* :meth:`DfsClient.preload_file` installs a file's blocks *without*
  traffic — the "input data already in HDFS" starting condition of the
  paper's capture runs.

All processes are simkit generators; callers ``yield`` them.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional

from repro.capture.records import TrafficComponent
from repro.cluster import ports
from repro.cluster.config import HadoopConfig
from repro.cluster.topology import Host
from repro.hdfs.blocks import Block, BlockLocation
from repro.hdfs.datanode import DataNode
from repro.hdfs.namenode import NameNode
from repro.net.backend import FlowRequest, TransportBackend
from repro.simkit.core import Simulator


class DfsClient:
    """Client-side HDFS operations over the flow network."""

    def __init__(self, sim: Simulator, net: TransportBackend, namenode: NameNode,
                 datanodes: Dict[Host, DataNode], config: HadoopConfig):
        self.sim = sim
        self.net = net
        self.namenode = namenode
        self.datanodes = datanodes
        self.config = config
        # Per-client write ids keep port tags (and hence trace bytes)
        # independent of how many writes earlier clusters in this
        # process performed.
        self._write_ids = itertools.count(1)
        self.telemetry = sim.telemetry
        registry = self.telemetry.registry
        self._tracer = self.telemetry.tracer
        self._c_blocks_written = registry.counter("hdfs.blocks_written")
        self._c_bytes_written = registry.counter("hdfs.bytes_written")
        self._c_blocks_read = registry.counter("hdfs.blocks_read")
        self._c_bytes_read = registry.counter("hdfs.bytes_read")

    # -- write path -------------------------------------------------------------

    def write_file(self, path: str, size: int, writer: Host,
                   job_id: str = "", replication: Optional[int] = None,
                   component: str = TrafficComponent.HDFS_WRITE.value,
                   parent_span=None):
        """Generator process: write ``size`` bytes to ``path`` from ``writer``.

        Blocks are written sequentially (as ``DFSOutputStream`` does at
        block granularity); within a block all pipeline hops run
        concurrently, which models the streaming pipeline at flow
        granularity.  Returns the list of `BlockLocation`s written.
        """
        if size < 0:
            raise ValueError(f"cannot write negative size {size}")
        replication = replication if replication is not None else self.config.replication
        self.namenode.create_file(path)
        locations: List[BlockLocation] = []
        for block_size in split_into_blocks(size, self.config.block_size):
            location = self.namenode.allocate_block(path, block_size, replication, writer)
            locations.append(location)
            yield from self._write_pipeline(location, writer, job_id, component,
                                            parent_span=parent_span)
        return locations

    def _write_pipeline(self, location: BlockLocation, writer: Host,
                        job_id: str, component: str, parent_span=None):
        """Run one block's replication pipeline; waits for all hops."""
        write_id = next(self._write_ids)
        self._c_blocks_written.value += 1
        self._c_bytes_written.value += location.block.size
        span = parent_span
        if self._tracer.enabled:
            span = self._tracer.start(
                "hdfs_write", f"block[{location.block.block_id}]",
                self.sim.now, parent=parent_span,
                size=location.block.size,
                replicas=len(location.replicas), job_id=job_id)
        # A writer that holds a replica writes it through its own disk
        # and heads the pipeline, whatever order placement chose (HDFS
        # orders the pipeline nearest-first); otherwise it streams to
        # the first replica.  Either way each replica is written once.
        chain = [writer] + [replica for replica in location.replicas
                            if replica != writer]
        # The pipeline hops all start at the same instant — a textbook
        # flow wave — so they are admitted in one batched call: paths
        # resolve in one pass and the wave shares one rate
        # recomputation.
        requests = []
        for hop_index, (src, dst) in enumerate(zip(chain[:-1], chain[1:])):
            datanode = self.datanodes.get(dst)
            max_rate = datanode.disk_write_rate if datanode else None
            requests.append(FlowRequest(
                src, dst, location.block.size, max_rate=max_rate,
                metadata={
                    "component": component,
                    "service": "dfs-write-pipeline",
                    "job_id": job_id,
                    "block_id": location.block.block_id,
                    "hop": hop_index,
                    "src_port": ports.ephemeral_port(
                        f"write-{write_id}-{hop_index}-{src.name}"),
                    "dst_port": ports.DATANODE_XFER,
                }, parent_span=span))
        if writer in location.replicas:
            # The writer's own replica is written through the local disk.
            datanode = self.datanodes.get(writer)
            rate = datanode.disk_write_rate if datanode else None
            requests.append(FlowRequest(
                writer, writer, location.block.size, max_rate=rate,
                metadata={"component": component, "service": "dfs-write-local",
                          "job_id": job_id, "block_id": location.block.block_id},
                parent_span=span))
        waits = [flow.done for flow in self.net.start_flows(requests)]
        if waits:
            yield self.sim.all_of(waits)
        if self._tracer.enabled:
            self._tracer.end(span, self.sim.now)

    # -- read path --------------------------------------------------------------

    def read_block(self, block: Block, reader: Host, job_id: str = "",
                   component: str = TrafficComponent.HDFS_READ.value,
                   parent_span=None):
        """Generator process: read one block to ``reader``.

        Returns the serving replica host (useful for locality stats).
        """
        replica = self.namenode.choose_replica_for_read(block, reader)
        datanode = self.datanodes.get(replica)
        max_rate = datanode.disk_read_rate if datanode else None
        self._c_blocks_read.value += 1
        self._c_bytes_read.value += block.size
        flow = self.net.start_flow(
            replica, reader, block.size, max_rate=max_rate,
            metadata={
                "component": component,
                "service": "dfs-read",
                "job_id": job_id,
                "block_id": block.block_id,
                "src_port": ports.DATANODE_XFER,
                "dst_port": ports.ephemeral_port(
                    f"read-{block.block_id}-{reader.name}"),
            }, parent_span=parent_span)
        yield flow.done
        return replica

    def read_file(self, path: str, reader: Host, job_id: str = ""):
        """Generator process: read a whole file block-by-block."""
        served_by = []
        for block in self.namenode.blocks_of(path):
            replica = yield from self.read_block(block, reader, job_id=job_id)
            served_by.append(replica)
        return served_by

    # -- pre-loading --------------------------------------------------------------

    def preload_file(self, path: str, size: int,
                     replication: Optional[int] = None) -> List[BlockLocation]:
        """Install a file's blocks instantly, with placement but no traffic.

        Models input data loaded before the capture window opens.
        """
        replication = replication if replication is not None else self.config.replication
        self.namenode.create_file(path)
        locations = []
        for block_size in split_into_blocks(size, self.config.block_size):
            locations.append(
                self.namenode.allocate_block(path, block_size, replication, writer=None))
        return locations


def split_into_blocks(size: int, block_size: int) -> List[int]:
    """Block sizes of a file: full blocks plus a short tail.

    A zero-byte file still occupies one empty block (HDFS creates the
    file entry; our callers rely on at least one block existing).
    """
    if size < 0:
        raise ValueError(f"size must be >= 0, got {size}")
    if block_size <= 0:
        raise ValueError(f"block_size must be positive, got {block_size}")
    size = int(size)
    if size == 0:
        return [0]
    full, tail = divmod(size, block_size)
    return [block_size] * full + ([tail] if tail else [])
