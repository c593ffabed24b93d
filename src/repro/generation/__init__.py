"""Keddah stage 3 — reproducing traffic.

Turns fitted :class:`~repro.modeling.model.JobTrafficModel` objects back
into traffic:

* :mod:`repro.generation.generator` — sample a synthetic
  :class:`~repro.capture.records.JobTrace` (flow sizes, start times and
  endpoint placement per component) for an arbitrary input size,
  including sizes never captured (via the model's scaling laws);
* :mod:`repro.generation.replay` — drive a trace (captured or
  synthetic) through the flow-level network simulator and report
  completion times and link utilisation;
* :mod:`repro.generation.export` — emit schedules for external
  simulators: a generic CSV schedule, an ns-3 C++ application, and an
  ns-3-readable flow schedule.
"""

from repro.generation.crosstraffic import (
    CrossTrafficSpec,
    generate_cross_traffic,
    replay_with_cross_traffic,
)
from repro.generation.export import to_flow_schedule_csv, to_json, to_ns3_script, to_omnet_ini
from repro.generation.generator import generate_trace, worker_names
from repro.generation.replay import ReplayReport, replay_trace
from repro.generation.workload import ScheduledJob, generate_workload_trace

__all__ = [
    "CrossTrafficSpec",
    "ReplayReport",
    "generate_cross_traffic",
    "replay_with_cross_traffic",
    "ScheduledJob",
    "generate_workload_trace",
    "generate_trace",
    "replay_trace",
    "to_flow_schedule_csv",
    "to_json",
    "to_ns3_script",
    "to_omnet_ini",
    "worker_names",
]
