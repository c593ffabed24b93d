"""Unit tests for ClusterSpec / HadoopConfig."""

import pytest

from repro.cluster.config import ClusterSpec, HadoopConfig
from repro.cluster.units import MB, fmt_bytes


def test_cluster_spec_defaults_and_racks():
    spec = ClusterSpec()
    assert spec.num_nodes == 16
    assert spec.num_racks == 2
    spec = ClusterSpec(num_nodes=17, hosts_per_rack=8)
    assert spec.num_racks == 3


def test_cluster_spec_roundtrip():
    spec = ClusterSpec(num_nodes=4, topology="star", host_gbps=10.0)
    assert ClusterSpec.from_dict(spec.to_dict()) == spec


def test_cluster_spec_validation():
    with pytest.raises(ValueError):
        ClusterSpec(num_nodes=0)
    with pytest.raises(ValueError):
        ClusterSpec(containers_per_node=0)
    with pytest.raises(ValueError):
        ClusterSpec(disk_read_rate=0)


def test_hadoop_config_defaults():
    config = HadoopConfig()
    assert config.block_size == 128 * MB
    assert config.replication == 3
    assert config.scheduler == "fifo"


def test_hadoop_config_replace_creates_modified_copy():
    config = HadoopConfig()
    changed = config.replace(replication=2, num_reducers=32)
    assert changed.replication == 2
    assert changed.num_reducers == 32
    assert config.replication == 3  # original untouched


def test_hadoop_config_roundtrip():
    config = HadoopConfig(block_size=64 * MB, scheduler="fair", extra={"x": 1})
    assert HadoopConfig.from_dict(config.to_dict()) == config


@pytest.mark.parametrize("overrides", [
    {"block_size": 1},
    {"replication": 0},
    {"num_reducers": -1},
    {"slowstart": 1.5},
    {"shuffle_parallel_copies": 0},
    {"scheduler": "cfs"},
])
def test_hadoop_config_validation(overrides):
    with pytest.raises(ValueError):
        HadoopConfig(**overrides)


def test_fmt_bytes():
    assert fmt_bytes(512) == "512 B"
    assert fmt_bytes(1536) == "1.50 KiB"
    assert fmt_bytes(3 * MB) == "3.00 MiB"
