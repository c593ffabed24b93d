#!/usr/bin/env python3
"""The packet-level ingestion path: pcap-style capture → flows → model.

Demonstrates that the modelling stages are independent of the
simulator: a packet trace (here synthesised from a simulated capture,
in practice tcpdump output reduced to the same CSV) is assembled into
classified flow records, re-labelled purely from ports, and fitted —
the exact reduction the real Keddah toolchain performs.

Run:  python examples/pcap_pipeline.py
"""

import tempfile
from pathlib import Path

from repro import run_capture
from repro.capture.classifier import classification_accuracy
from repro.capture.pcap import assemble_flows, read_packets, synthesize_packets, write_packets
from repro.capture.records import CaptureMeta, JobTrace
from repro.cluster.config import HadoopConfig
from repro.cluster.units import MB, fmt_bytes
from repro.modeling.fitting import fit_candidates


def main() -> None:
    config = HadoopConfig(block_size=32 * MB, num_reducers=4)
    trace = run_capture("wordcount", input_gb=0.5, nodes=8, seed=3, config=config)
    print(f"captured {trace.flow_count()} flows / "
          f"{fmt_bytes(trace.total_bytes())}")

    # Explode every flow into an MTU packet train and write the "pcap".
    packets = [packet for flow in trace.flows
               for packet in synthesize_packets(flow)]
    pcap_path = Path(tempfile.mkdtemp()) / "capture.csv"
    write_packets(packets, pcap_path)
    print(f"wrote {len(packets)} packets -> {pcap_path}")

    # Ingest: read packets back, reassemble flows, classify from ports.
    rack_of = {f"h{i:03d}": i // 4 for i in range(9)}
    assembled = assemble_flows(read_packets(pcap_path), rack_of=rack_of)
    print(f"reassembled {len(assembled)} flows "
          f"({fmt_bytes(sum(f.size for f in assembled))})")

    accuracy = classification_accuracy(trace.flows)
    print(f"port-based classification accuracy vs ground truth: {accuracy:.1%}")

    # The same packets also serialise as a genuine libpcap file —
    # openable in Wireshark, and the ingestion path tcpdump output uses.
    from repro.capture.pcapfile import ip_name_map, read_pcap, write_pcap

    binary_path = pcap_path.with_suffix(".pcap")
    write_pcap(packets, binary_path)
    names = ip_name_map({f.src for f in trace.flows}
                        | {f.dst for f in trace.flows})
    recovered = read_pcap(binary_path, name_of=names)
    print(f"binary pcap round trip: {len(recovered)} packets "
          f"({binary_path.stat().st_size / 1e6:.1f} MB) -> {binary_path}")

    # The assembled flows feed the modelling stage like any capture.
    ingested = JobTrace(
        meta=CaptureMeta(job_id="ingested", job_kind="wordcount",
                         input_bytes=trace.meta.input_bytes),
        flows=assembled)
    shuffle_sizes = ingested.flow_sizes("shuffle")
    best = fit_candidates(shuffle_sizes)[0]
    print(f"shuffle flow sizes from the pcap path fit "
          f"{best.distribution!r} (KS={best.ks:.3f}, "
          f"n={len(shuffle_sizes)})")


if __name__ == "__main__":
    main()
