"""Flow-level (fluid) network simulator.

Models the cluster network as capacitated links shared by concurrent
flows under **max-min fairness** — the standard fluid approximation of
long-lived TCP flows, and the granularity at which Keddah captures and
reproduces Hadoop traffic (per-flow records, not per-packet).

Main entry point is :class:`~repro.net.network.FlowNetwork`:

* ``start_flows(requests)`` admits a wave and returns one
  :class:`~repro.net.flow.Flow` per request, whose ``done`` signal
  fires at the fluid completion time (``start_flow(src, dst, size)``
  is a one-request wave);
* flow arrivals/departures trigger max-min rate recomputation
  (:mod:`repro.net.fairshare`); same-instant changes are coalesced into
  one recompute by a zero-delay flush;
* listeners receive each completed flow, which is how the capture stage
  (:mod:`repro.capture`) observes traffic.
"""

from repro.net.backend import (
    BACKEND_NAMES,
    AnalyticBackend,
    FlowIntent,
    RecordBackend,
    TransportBackend,
    make_backend,
)
from repro.net.fairshare import FairShareAllocator, max_min_rates
from repro.net.flow import Flow
from repro.net.network import FlowNetwork

__all__ = [
    "AnalyticBackend",
    "BACKEND_NAMES",
    "FairShareAllocator",
    "Flow",
    "FlowIntent",
    "FlowNetwork",
    "RecordBackend",
    "TransportBackend",
    "make_backend",
    "max_min_rates",
]
