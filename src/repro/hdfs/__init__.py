"""HDFS substrate: NameNode, DataNodes, placement, client pipelines.

Implements the HDFS mechanisms that shape Hadoop's network footprint:

* **block placement** — the default rack-aware policy (first replica on
  the writer, second off-rack, third co-racked with the second), which
  determines how much write traffic crosses the core;
* **write pipelines** — each block travels hop-by-hop through its
  replica chain, so a replication factor of *r* puts *r − 1* copies of
  every block on the wire (*r − 2* of them crossing racks, typically);
* **read locality** — node-local reads touch only the disk, rack-local
  and off-rack reads become network flows, so map-task placement decides
  the HDFS-read component's volume;
* **control plane** — periodic DataNode→NameNode heartbeats.

The NameNode keeps a plain in-memory namespace; persistence (fsimage /
edit log) is out of scope because it creates no network traffic.
"""

from repro.hdfs.blocks import Block, BlockLocation
from repro.hdfs.client import DfsClient
from repro.hdfs.datanode import DataNode
from repro.hdfs.namenode import BlockLostError, NameNode
from repro.hdfs.placement import DefaultPlacementPolicy, PlacementPolicy, RandomPlacementPolicy

__all__ = [
    "Block",
    "BlockLocation",
    "BlockLostError",
    "DataNode",
    "DefaultPlacementPolicy",
    "DfsClient",
    "NameNode",
    "PlacementPolicy",
    "RandomPlacementPolicy",
]
