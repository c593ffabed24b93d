"""Tests for sampled-capture modelling."""

import numpy as np
import pytest

from repro.capture.pcap import PacketRecord, synthesize_packets
from repro.capture.records import FlowRecord
from repro.capture.sampling import (
    assemble_sampled,
    sample_packets,
    sampling_loss,
    scale_sampled_flows,
)


# -- sampling --------------------------------------------------------------------


def flow(size, dport, start=0.0):
    return FlowRecord(src="h001", dst="h002", src_rack=0, dst_rack=0,
                      src_port=13562, dst_port=dport, size=size,
                      start=start, end=start + 2.0, component="shuffle")


def test_sample_packets_rate_one_is_identity():
    packets = synthesize_packets(flow(10_000.0, 49000))
    assert sample_packets(packets, rate=1) == packets


def test_sample_packets_keeps_about_one_in_n():
    packets = synthesize_packets(flow(10_000_000.0, 49000))
    sampled = sample_packets(packets, rate=10, seed=1)
    assert len(sampled) == pytest.approx(len(packets) / 10, rel=0.2)


def test_scale_recovers_volume_of_large_flows():
    packets = synthesize_packets(flow(50_000_000.0, 49000))
    flows = assemble_sampled(packets, rate=16, seed=2)
    assert len(flows) == 1
    assert flows[0].size == pytest.approx(50_000_000.0, rel=0.15)


def test_small_flows_vanish_under_sampling():
    rng = np.random.default_rng(3)
    packets = []
    for index in range(200):  # 200 one-packet flows
        packets.append(PacketRecord(float(index), "h001", "h002",
                                    13562, 40000 + index, 500))
    flows = assemble_sampled(packets, rate=20, seed=3)
    # Roughly 1/20 of single-packet flows survive.
    assert len(flows) < 40


def test_sampling_loss_report():
    original_packets = [p for dport in (49000, 49001)
                        for p in synthesize_packets(flow(20_000_000.0, dport))]
    from repro.capture.pcap import assemble_flows

    original = assemble_flows(original_packets)
    sampled = assemble_sampled(original_packets, rate=8, seed=4)
    loss = sampling_loss(original, sampled)
    assert loss["original_flows"] == 2
    assert 0 < loss["flow_survival"] <= 1.0
    assert loss["volume_error"] < 0.2


def test_sampling_validation():
    with pytest.raises(ValueError):
        sample_packets([], rate=0)
    with pytest.raises(ValueError):
        scale_sampled_flows([], rate=0)
