"""Unit tests for the NameNode."""

import numpy as np
import pytest

from repro.cluster.topology import build_topology
from repro.hdfs.namenode import NameNode


@pytest.fixture
def namenode():
    topo = build_topology("tree", num_hosts=8, hosts_per_rack=4)
    return NameNode(host=topo.hosts[0], datanodes=topo.hosts,
                    rng=np.random.default_rng(0)), topo


def test_create_and_list_files(namenode):
    nn, _ = namenode
    nn.create_file("/a")
    nn.create_file("/b")
    assert nn.list_files() == ["/a", "/b"]
    assert nn.exists("/a")
    assert not nn.exists("/c")


def test_create_duplicate_raises(namenode):
    nn, _ = namenode
    nn.create_file("/a")
    with pytest.raises(FileExistsError):
        nn.create_file("/a")


def test_allocate_blocks_and_file_size(namenode):
    nn, topo = namenode
    nn.create_file("/data")
    nn.allocate_block("/data", 100, replication=3, writer=topo.hosts[0])
    nn.allocate_block("/data", 50, replication=3, writer=topo.hosts[0])
    blocks = nn.blocks_of("/data")
    assert [block.index for block in blocks] == [0, 1]
    assert nn.file_size("/data") == 150


def test_allocate_into_missing_file_raises(namenode):
    nn, topo = namenode
    with pytest.raises(FileNotFoundError):
        nn.allocate_block("/nope", 10, 3, topo.hosts[0])


def test_delete_file_frees_blocks(namenode):
    nn, topo = namenode
    nn.create_file("/tmp")
    location = nn.allocate_block("/tmp", 10, 3, topo.hosts[0])
    nn.delete_file("/tmp")
    assert not nn.exists("/tmp")
    with pytest.raises(KeyError):
        nn.locate(location.block)
    with pytest.raises(FileNotFoundError):
        nn.delete_file("/tmp")


def test_locate_file_returns_all_locations(namenode):
    nn, topo = namenode
    nn.create_file("/f")
    nn.allocate_block("/f", 10, 2, topo.hosts[1])
    nn.allocate_block("/f", 10, 2, topo.hosts[1])
    locations = nn.locate_file("/f")
    assert len(locations) == 2
    assert all(len(location.replicas) == 2 for location in locations)


def test_choose_replica_prefers_node_local(namenode):
    nn, topo = namenode
    nn.create_file("/f")
    location = nn.allocate_block("/f", 10, 3, topo.hosts[2])
    for replica in location.replicas:
        assert nn.choose_replica_for_read(location.block, replica) == replica


def test_choose_replica_prefers_rack_local(namenode):
    nn, topo = namenode
    nn.create_file("/f")
    writer = topo.hosts_in_rack(0)[0]
    location = nn.allocate_block("/f", 10, 3, writer)
    # A rack-0 host that holds no replica should be served from rack 0
    # when a rack-0 replica exists.
    rack0_replicas = [r for r in location.replicas if r.rack == 0]
    readers = [h for h in topo.hosts_in_rack(0) if h not in location.replicas]
    if rack0_replicas and readers:
        chosen = nn.choose_replica_for_read(location.block, readers[0])
        assert chosen.rack == 0


def test_requires_datanodes():
    topo = build_topology("star", num_hosts=2)
    with pytest.raises(ValueError):
        NameNode(host=topo.hosts[0], datanodes=[])


def test_block_location_helpers(namenode):
    nn, topo = namenode
    nn.create_file("/f")
    location = nn.allocate_block("/f", 10, 3, topo.hosts[0])
    assert location.primary == topo.hosts[0]
    assert 0 in location.racks()
