"""Keddah stage 1 — capture.

Turns raw traffic into labelled per-flow records grouped by job:

* :mod:`repro.capture.records` — the :class:`FlowRecord` /
  :class:`JobTrace` data model with a stable JSONL codec (the interface
  between capture and the modelling stage; real pcap-derived data in
  the same shape slots straight in);
* :mod:`repro.capture.pcap` — a pcap-like packet trace codec and a
  packet→flow assembler, exercising the same reduction Keddah performs
  on tcpdump output;
* :mod:`repro.capture.classifier` — port-based classification of flows
  into Hadoop traffic components (HDFS read / HDFS write / shuffle /
  control), validated against simulator ground truth in tests;
* :mod:`repro.capture.collector` — hooks a
  :class:`~repro.net.network.FlowNetwork` and materialises a
  :class:`JobTrace` per executed job.
"""

from repro.capture.classifier import classify_flow
from repro.capture.collector import FlowCollector
from repro.capture.pcap import PacketRecord, assemble_flows, read_packets, synthesize_packets, write_packets
from repro.capture.records import CaptureMeta, FlowRecord, JobTrace, TrafficComponent

__all__ = [
    "CaptureMeta",
    "FlowCollector",
    "FlowRecord",
    "JobTrace",
    "PacketRecord",
    "TrafficComponent",
    "assemble_flows",
    "classify_flow",
    "read_packets",
    "synthesize_packets",
    "write_packets",
]
