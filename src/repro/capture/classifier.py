"""Port-based classification of flows into Hadoop traffic components.

This is the rule set Keddah applies to reduced tcpdump output: Hadoop
daemons sit on well-known ports, so the (src_port, dst_port) pair of a
connection identifies the service, and the *direction* of the data
relative to the DataNode transfer port separates HDFS reads (DataNode
is the sender) from HDFS writes (DataNode is the receiver).

The simulator stamps ground-truth component labels on every flow it
creates; tests assert that this classifier reconstructs those labels
from ports alone, which is the fidelity claim the capture stage makes.
"""

from __future__ import annotations

from typing import Iterable

from repro.capture.records import FlowRecord, TrafficComponent
from repro.cluster import ports

_CONTROL_PORTS = {
    ports.NAMENODE_RPC,
    ports.RM_SCHEDULER,
    ports.RM_TRACKER,
    ports.RM_CLIENT,
    ports.NM_IPC,
}


def classify_ports(src_port: int, dst_port: int) -> TrafficComponent:
    """Map a (src_port, dst_port) pair to a traffic component."""
    if src_port == ports.DATANODE_XFER:
        return TrafficComponent.HDFS_READ
    if dst_port == ports.DATANODE_XFER:
        return TrafficComponent.HDFS_WRITE
    if src_port == ports.SHUFFLE_HANDLER or dst_port == ports.SHUFFLE_HANDLER:
        return TrafficComponent.SHUFFLE
    if src_port in _CONTROL_PORTS or dst_port in _CONTROL_PORTS:
        return TrafficComponent.CONTROL
    return TrafficComponent.OTHER


def classify_flow(flow: FlowRecord) -> TrafficComponent:
    """Classify one flow record by its ports."""
    return classify_ports(flow.src_port, flow.dst_port)


def classification_accuracy(flows: Iterable[FlowRecord]) -> float:
    """Fraction of flows whose port-based class matches their label.

    Only meaningful on simulator-produced flows (which carry ground
    truth); returns 1.0 for an empty input.
    """
    total = 0
    correct = 0
    for flow in flows:
        total += 1
        if classify_flow(flow).value == flow.component:
            correct += 1
    return correct / total if total else 1.0
