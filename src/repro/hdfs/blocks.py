"""Block and replica-location value objects."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List

from repro.cluster.topology import Host

_block_ids = itertools.count(1)


@dataclass
class Block:
    """One HDFS block of a file.

    ``index`` is the block's position within its file; ``size`` is the
    actual byte count (the final block of a file is usually short).
    """

    path: str
    index: int
    size: int
    block_id: int = field(default_factory=lambda: next(_block_ids))

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError(f"block size must be >= 0, got {self.size}")

    def __hash__(self) -> int:
        return hash(self.block_id)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Block({self.path}#{self.index}, {self.size}B, id={self.block_id})"


@dataclass
class BlockLocation:
    """The replica set of a block, in pipeline order."""

    block: Block
    replicas: List[Host]

    @property
    def primary(self) -> Host:
        """First replica (pipeline head; the writer's local copy)."""
        return self.replicas[0]

    def racks(self) -> List[int]:
        return sorted({replica.rack for replica in self.replicas})
