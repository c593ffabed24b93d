"""Top-level convenience API: the three Keddah stages in one import.

    from repro import run_capture, fit_job_model, generate_trace, replay_trace

    traces = [run_capture("terasort", input_gb=gb, nodes=16, seed=1)
              for gb in (1.0, 2.0, 5.0)]
    model = fit_job_model(traces)
    synthetic = generate_trace(model, input_gb=10.0, seed=2)
    report = replay_trace(synthetic)

Captures here take the one path every campaign, store and CLI capture
takes (:class:`~repro.experiments.runner.CapturePoint` /
:class:`~repro.experiments.runner.PlanPoint`), so a capture depends only
on its arguments, never on what ran earlier in the process.
``run_capture_campaign`` resolves its points through
:func:`repro.experiments.campaigns.resolve_points`, the one memo →
store → simulation resolver every experiment uses.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Sequence

from repro.capture.records import JobTrace
from repro.cluster.config import ClusterSpec, HadoopConfig
from repro.generation.generator import generate_trace
from repro.generation.replay import replay_trace
from repro.modeling.model import fit_job_model
from repro.obs.telemetry import Telemetry

__all__ = [
    "fit_job_model",
    "generate_trace",
    "replay_trace",
    "run_capture",
    "run_capture_campaign",
]


def run_capture(job: Optional[str] = None, input_gb: float = 1.0,
                nodes: int = 16, seed: int = 0,
                config: Optional[HadoopConfig] = None,
                cluster_spec: Optional[ClusterSpec] = None,
                hosts_per_rack: int = 4,
                telemetry: Optional[Telemetry] = None,
                backend: Optional[str] = None,
                plan: Optional[str] = None,
                plan_params: Optional[dict] = None,
                **job_kwargs) -> JobTrace:
    """Run one job or workload plan on a fresh cluster; return its capture.

    ``job`` is a catalog kind (``terasort``, ``wordcount``, ...);
    ``job_kwargs`` pass through to :func:`repro.jobs.make_job` (e.g.
    ``num_reducers=32`` or ``iterations=5``).  Alternatively ``plan``
    names a registered :class:`~repro.jobs.plan.WorkloadPlan`, built
    with ``plan_params`` and run as a multi-stage DAG; exactly one of
    ``job``/``plan`` must be given.  ``cluster_spec`` wins over the
    ``nodes``/``hosts_per_rack`` shortcuts when provided.  ``telemetry``
    (e.g. ``Telemetry.enabled_in_memory()``) observes the run without
    changing the captured bytes.  ``backend`` selects the transport
    substrate (``fluid``/``analytic``/``record``, see
    :mod:`repro.net.backend`) and overrides ``cluster_spec.backend``
    when given.

    The capture is simulated as a
    :class:`~repro.experiments.runner.CapturePoint` (or
    :class:`~repro.experiments.runner.PlanPoint`), the path every
    campaign, store and CLI capture takes: the job id derives from the
    point's content unless ``job_id=`` is passed, so equal arguments
    give byte-identical traces.
    """
    from repro.experiments.runner import CapturePoint, PlanPoint

    if (job is None) == (plan is None):
        raise ValueError("run_capture needs exactly one of job= or plan=")
    spec = cluster_spec or ClusterSpec(num_nodes=nodes,
                                       hosts_per_rack=hosts_per_rack)
    if backend is not None and backend != spec.backend:
        spec = replace(spec, backend=backend)
    hadoop = config or HadoopConfig()
    if plan is not None:
        if job_kwargs:
            raise ValueError("job kwargs do not apply to plan captures; "
                             "use plan_params=")
        point = PlanPoint.from_configs(plan, seed, spec, hadoop, plan_params)
    else:
        point = CapturePoint.from_configs(job, input_gb, seed, spec, hadoop,
                                          job_kwargs)
    _, trace = point.simulate(telemetry)
    return trace


def run_capture_campaign(job: str, input_sizes_gb: Sequence[float],
                         nodes: int = 16, seed: int = 0, repeats: int = 1,
                         config: Optional[HadoopConfig] = None,
                         workers: int = 1,
                         backend: str = "fluid",
                         **job_kwargs) -> List[JobTrace]:
    """Capture one job kind across input sizes (the paper's sweep unit).

    Each (size, repeat) pair runs on a fresh cluster with a seed from
    :func:`repro.experiments.runner.derive_seed`, so runs are
    independent and the whole campaign is reproducible from ``seed``.
    Points resolve through :func:`repro.experiments.campaigns.
    resolve_points` (the process-local memo, then the capture store
    ``KEDDAH_CAPTURE_STORE`` names, if any, then simulation);
    ``workers > 1`` fans cache misses out across processes with
    flow-for-flow identical output.
    """
    from repro.experiments.campaigns import resolve_points
    from repro.experiments.runner import CapturePoint, derive_seed

    spec = ClusterSpec(num_nodes=nodes, hosts_per_rack=4, backend=backend)
    hadoop = config or HadoopConfig()
    points = [CapturePoint.from_configs(
                  job, input_gb, derive_seed(seed, size_index, repeat),
                  spec, hadoop, job_kwargs)
              for size_index, input_gb in enumerate(input_sizes_gb)
              for repeat in range(repeats)]
    return [trace for _, trace in resolve_points(points, workers)]
