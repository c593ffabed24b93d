"""Per-layer numbers for the traced run, taken from outside the program.

Self time comes from one ``cProfile`` pass over one run.  Each
function's self time goes to the ``repro.<package>`` that defines it;
time spent in code outside ``repro`` (the standard library, builtins,
numpy) goes to the nearest ``repro`` frame that called it, split over
its callers by their share of its time.  Time no ``repro`` frame is
above — the benchmark's own loop, the profiler's — is reported as
``unattributed.self_s``, so the self-time rows add up to the profiled
wall time.

Inclusive timings (``runner.run_s``, ``store.put_s``, ...) are the
profiled cumulative time of the public function each one names.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Tuple

#: Packages reported as their own self-time row; the rest of ``repro``
#: (jobs, cluster, workloads, top-level modules) is ``other``.
SELF_LAYERS = ("simkit", "net", "hdfs", "yarn", "mapreduce", "capture",
               "obs", "experiments", "modeling", "generation", "analysis")

UNATTRIBUTED = "unattributed"

FuncKey = Tuple[str, int, str]


def layer_of(filename: str) -> str:
    """``repro.<package>`` of a source file, '' outside ``repro``."""
    path = filename.replace("\\", "/")
    marker = path.rfind("/repro/")
    if marker < 0:
        return ""
    parts = path[marker + len("/repro/"):].split("/")
    if len(parts) > 1 and parts[0] in SELF_LAYERS:
        return parts[0]
    return "other"


def attribute_self_time(stats: Dict[FuncKey, Any]) -> Dict[str, float]:
    """Seconds of self time per layer; see the module docstring."""
    shares: Dict[FuncKey, Dict[str, float]] = {}
    in_progress = set()

    def share(func: FuncKey) -> Dict[str, float]:
        """Fraction of ``func``'s time owed to each layer."""
        own = layer_of(func[0])
        if own:
            return {own: 1.0}
        if func in shares:
            return shares[func]
        in_progress.add(func)
        # A recursive edge (json's encoder, say) leads back into this
        # walk; the time is owed to the callers outside the cycle.
        callers = {caller: edge for caller, edge
                   in (stats[func][4] if func in stats else {}).items()
                   if caller not in in_progress}
        total = sum(edge[3] for edge in callers.values())
        result: Dict[str, float] = {}
        if total <= 0:
            result[UNATTRIBUTED] = 1.0
        else:
            for caller, edge in callers.items():
                for layer, fraction in share(caller).items():
                    result[layer] = (result.get(layer, 0.0)
                                     + fraction * edge[3] / total)
        in_progress.discard(func)
        shares[func] = result
        return result

    totals = {layer: 0.0 for layer in SELF_LAYERS + ("other", UNATTRIBUTED)}
    for func, (_, _, self_time, _, _) in stats.items():
        for layer, fraction in share(func).items():
            totals[layer] += self_time * fraction
    return totals


def _code_key(fn: Callable) -> FuncKey:
    code = getattr(fn, "__code__", None) or fn.__func__.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def cumulative(stats: Dict[FuncKey, Any], fns: Iterable[Callable]) -> float:
    """Summed profiled cumulative seconds of the given functions."""
    return sum(stats[key][3] for key in map(_code_key, fns) if key in stats)


def calls(stats: Dict[FuncKey, Any], fns: Iterable[Callable]) -> int:
    """Summed primitive call counts of the given functions."""
    return sum(stats[key][1] for key in map(_code_key, fns) if key in stats)


def entry_point_timings(stats: Dict[FuncKey, Any]) -> Dict[str, float]:
    """The inclusive timers and call counts the benchmark names."""
    from repro.analysis.breakdown import component_breakdown
    from repro.analysis.compare import validation_summary
    from repro.experiments.dag import DAGRunner, stage_registry
    from repro.experiments.runner import CampaignRunner, CapturePoint, PlanPoint
    from repro.experiments.store import CaptureStore
    from repro.generation.generator import generate_trace
    from repro.generation.replay import replay_trace
    from repro.modeling.model import fit_job_model

    run_s = cumulative(stats, [CampaignRunner.run])
    simulate_s = cumulative(stats, [CapturePoint.simulate, PlanPoint.simulate])
    dag_s = cumulative(stats, [DAGRunner.run])
    stage_s = cumulative(stats, stage_registry().values())
    return {
        "runner.run_s": run_s,
        "runner.simulate_s": simulate_s,
        # Points the benchmark simulates itself (capture_fabric) run
        # outside any runner, so the overhead only counts under one.
        "runner.overhead_s": max(0.0, run_s - simulate_s) if run_s else 0.0,
        "store.put_s": cumulative(stats, [CaptureStore.put]),
        "store.get_s": cumulative(stats, [CaptureStore.get]),
        "dag.run_s": dag_s,
        "dag.stage_s": stage_s,
        "dag.overhead_s": max(0.0, dag_s - stage_s),
        "modeling.fit_s": cumulative(stats, [fit_job_model]),
        "modeling.fits": calls(stats, [fit_job_model]),
        "generation.generate_s": cumulative(stats, [generate_trace]),
        "generation.replay_s": cumulative(stats, [replay_trace]),
        "analysis.classify_s": cumulative(stats, [component_breakdown]),
        "analysis.validate_s": cumulative(stats, [validation_summary]),
    }


def counter_metrics(counts: Dict[str, float], observed: Dict[str, float],
                    self_times: Dict[str, float],
                    whole_gauges: bool) -> Dict[str, float]:
    """Per-layer counts from the counting pass's registries.

    The allocator's callback gauges (``net.recomputes``,
    ``net.waterfill_rounds``, ``net.allocator_seconds``) read one
    network; they are whole only when a run is one simulation
    (``whole_gauges``) and are reported as 0 otherwise.
    """
    events = counts.get("sim.events_fired", 0.0)
    recomputes = counts.get("net.recomputes", 0.0) if whole_gauges else 0.0
    allocator_s = (counts.get("net.allocator_seconds", 0.0)
                   if whole_gauges else 0.0)
    return {
        "simkit.events_fired": events,
        "simkit.events_cancelled": counts.get("sim.events_cancelled", 0.0),
        "simkit.ns_per_event": (self_times["simkit"] / events * 1e9
                                if events else 0.0),
        "net.allocator_s": allocator_s,
        "net.recomputes": recomputes,
        "net.waterfill_rounds": (counts.get("net.waterfill_rounds", 0.0)
                                 if whole_gauges else 0.0),
        "net.flows_started": counts.get("net.flows_started", 0.0),
        "net.flushes": counts.get("net.flushes", 0.0),
        "net.us_per_recompute": (allocator_s / recomputes * 1e6
                                 if recomputes else 0.0),
        "hdfs.blocks_written": counts.get("hdfs.blocks_written", 0.0),
        "yarn.node_heartbeats": counts.get("yarn.node_heartbeats", 0.0),
        "yarn.containers_granted": counts.get("yarn.containers_granted", 0.0),
        "capture.flows_collected": observed.get("capture.flows_collected",
                                                0.0),
        "store.bytes_written": counts.get("store.bytes_written", 0.0),
        "store.bytes_read": counts.get("store.bytes_read", 0.0),
        "dag.nodes_run": observed.get("dag.nodes_run", 0.0),
        "generation.flows_replayed": observed.get(
            "generation.flows_replayed", 0.0),
    }


def self_time_metrics(self_times: Dict[str, float]) -> Dict[str, float]:
    return {f"{layer}.self_s": seconds
            for layer, seconds in self_times.items()}

