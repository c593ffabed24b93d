"""``keddah`` — the command-line face of the toolchain.

Subcommands mirror the pipeline stages::

    keddah capture  --job terasort --input-gb 1.0 --nodes 8 -o trace.jsonl
    keddah capture  --plan tpcx-hs --scale 1 -o hs.jsonl
    keddah plans    list
    keddah campaign --job terasort --job grep --workers 4 --store ./store
    keddah pipeline run --dir pipeline/ --experiments e12,e18
    keddah store    stats --store ./store
    keddah fit      traces/*.jsonl -o model.json
    keddah generate --model model.json --input-gb 4.0 -o synthetic.jsonl
    keddah replay   trace.jsonl
    keddah export   trace.jsonl --format ns3 -o replay.cc
    keddah report   trace.jsonl --telemetry telemetry/
    keddah trace    telemetry/spans.jsonl --kinds job,stage,task
    keddah serve    --telemetry telemetry/ --port 9109 --alerts rules.json
    keddah top      http://127.0.0.1:9109

Every command reads/writes the JSONL trace and JSON model formats, so
stages can be mixed with externally produced data.  ``capture`` and
``campaign`` accept ``--telemetry DIR`` to observe the run (metrics,
probes, spans) without changing the captured bytes; ``report`` and
``trace`` read those artefacts back.  ``campaign --serve-port N``
attaches the live observability daemon for the duration of the run;
``serve`` exposes a telemetry directory standalone; ``top`` renders a
one-shot cluster view from either.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis.breakdown import component_breakdown
from repro.analysis.tables import Table, render_table
from repro.api import run_capture
from repro.capture.records import JobTrace
from repro.cluster.config import HadoopConfig
from repro.cluster.units import MB
from repro.generation.export import to_flow_schedule_csv, to_json, to_ns3_script, to_omnet_ini
from repro.generation.generator import generate_trace
from repro.generation.replay import replay_trace
from repro.jobs import job_catalog, plan_catalog
from repro.modeling.model import JobTrafficModel, fit_job_model
from repro.net.backend import BACKEND_NAMES, ENGINE_NAMES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="keddah",
        description="Capture, model and reproduce Hadoop network traffic.")
    sub = parser.add_subparsers(dest="command", required=True)

    capture = sub.add_parser(
        "capture", help="run a job or workload plan and capture its flows")
    capture.add_argument("--job", default=None, choices=sorted(job_catalog()),
                         help="single-job capture (exactly one of "
                              "--job/--plan)")
    capture.add_argument("--plan", default=None,
                         choices=sorted(plan_catalog()),
                         help="multi-stage workload-plan capture "
                              "(see `keddah plans list`)")
    capture.add_argument("--scale", type=float, default=None,
                         help="plan scale factor (shorthand for "
                              "--plan-param scale=N, e.g. TPCx-HS scale)")
    capture.add_argument("--plan-param", action="append", default=[],
                         metavar="K=V", dest="plan_params",
                         help="plan parameter override (repeatable; values "
                              "parse as JSON, falling back to strings)")
    capture.add_argument("--input-gb", type=float, default=1.0)
    capture.add_argument("--nodes", type=int, default=8)
    capture.add_argument("--hosts-per-rack", type=int, default=4)
    capture.add_argument("--seed", type=int, default=0)
    capture.add_argument("--block-mb", type=int, default=32)
    capture.add_argument("--reducers", type=int, default=4)
    capture.add_argument("--replication", type=int, default=3)
    capture.add_argument("--backend", default="fluid",
                         choices=list(BACKEND_NAMES),
                         help="transport substrate: fluid (exact), analytic "
                              "(fast approximate timings), record (intent "
                              "log, degenerate timings)")
    capture.add_argument("--engine", default="scalar",
                         choices=list(ENGINE_NAMES),
                         help="fluid-engine implementation: scalar "
                              "(reference) or vectorized (numpy, "
                              "byte-identical captures, faster on large "
                              "shuffles)")
    capture.add_argument("--scheduler", default="fifo",
                         choices=["fifo", "fair", "capacity", "drf"])
    capture.add_argument("-o", "--output", required=True,
                         help="trace output path (.jsonl)")
    capture.add_argument("--store", default=None,
                         help="persistent capture-store directory (defaults "
                              "to $KEDDAH_CAPTURE_STORE; reuses a stored "
                              "capture instead of re-simulating)")
    capture.add_argument("--telemetry", default=None, metavar="DIR",
                         help="enable telemetry and write metrics/probes/"
                              "spans artefacts into this directory")
    capture.add_argument("--probe-interval", type=float, default=1.0,
                         help="probe sampling cadence in simulated seconds "
                              "(with --telemetry)")

    campaign = sub.add_parser(
        "campaign", help="run a capture sweep (jobs x input sizes), "
                         "optionally in parallel and against the store")
    campaign.add_argument("--job", action="append", required=True,
                          dest="jobs", choices=sorted(job_catalog()),
                          help="job kind (repeatable)")
    campaign.add_argument("--sizes-gb", default="0.25,0.5,1.0,2.0",
                          help="comma-separated input sizes in GiB")
    campaign.add_argument("--seed", type=int, default=42)
    campaign.add_argument("--nodes", type=int, default=8)
    campaign.add_argument("--hosts-per-rack", type=int, default=4)
    campaign.add_argument("--block-mb", type=int, default=32)
    campaign.add_argument("--reducers", type=int, default=4)
    campaign.add_argument("--replication", type=int, default=3)
    campaign.add_argument("--backend", default="fluid",
                          choices=list(BACKEND_NAMES),
                          help="transport substrate for every point "
                               "(store keys include it, so analytic and "
                               "fluid sweeps never alias)")
    campaign.add_argument("--engine", default="scalar",
                          choices=list(ENGINE_NAMES),
                          help="fluid-engine implementation for every point "
                               "(store keys exclude it: scalar and "
                               "vectorized captures are byte-identical)")
    campaign.add_argument("--scheduler", default="fifo",
                          choices=["fifo", "fair", "capacity", "drf"])
    campaign.add_argument("--workers", type=int, default=1,
                          help="worker processes for cache-miss points "
                               "(0 = one per CPU core)")
    campaign.add_argument("--store", default=None,
                          help="persistent capture-store directory (defaults "
                               "to $KEDDAH_CAPTURE_STORE); each point is "
                               "stored as it finishes, so rerunning with the "
                               "same store resumes an interrupted campaign")
    campaign.add_argument("--invalidate", action="store_true",
                          help="clear the store before running")
    campaign.add_argument("--retries", type=int, default=3,
                          help="attempt budget per point: transient worker "
                               "failures (broken pools, killed workers) are "
                               "retried with deterministic backoff up to this "
                               "many attempts before quarantine")
    campaign.add_argument("--deadline", type=float, default=None, metavar="S",
                          help="per-point wall-clock deadline in seconds; a "
                               "hung point is killed by the watchdog and "
                               "retried (then quarantined)")
    campaign.add_argument("--quarantine", default=None, metavar="PATH",
                          help="quarantine sidecar recording failure "
                               "fingerprints of poisoned points (default: "
                               "<store>/quarantine.jsonl, when a store is "
                               "configured)")
    campaign.add_argument("--telemetry", default=None, metavar="DIR",
                          help="enable telemetry and write the aggregated "
                               "registry artefacts into this directory "
                               "(worker span streams stay per-process)")
    campaign.add_argument("-o", "--output", default=None,
                          help="optional directory for per-point trace files")
    campaign.add_argument("--serve-port", type=int, default=None, metavar="N",
                          help="attach the live observability daemon on this "
                               "port (0 = ephemeral) for the duration of the "
                               "run: /metrics, /events progress stream, ...")
    campaign.add_argument("--serve-host", default="127.0.0.1",
                          help="bind address for --serve-port")
    campaign.add_argument("--alerts", default=None, metavar="RULES.json",
                          help="alert rule file evaluated live during the "
                               "run (with --serve-port)")

    pipeline = sub.add_parser(
        "pipeline",
        help="run the capture→classify→fit→replay→validate→report "
             "pipeline as a crash-safe, resumable DAG of isolated stages")
    pipeline.add_argument("action", choices=["run", "plan", "resume"],
                          help="run: execute (writes pipeline.json); plan: "
                               "print the topological plan (cached / run / "
                               "interrupted / stale-upstream per node) "
                               "without executing; resume: re-run only "
                               "incomplete nodes from the saved spec")
    pipeline.add_argument("--dir", required=True, dest="pipeline_dir",
                          metavar="DIR",
                          help="pipeline root directory (spec and per-node "
                               "stage dirs live here; relocatable)")
    pipeline.add_argument("--job", action="append", dest="jobs",
                          choices=sorted(job_catalog()),
                          help="job kind (repeatable; default: terasort, "
                               "wordcount, grep)")
    pipeline.add_argument("--plan", action="append", dest="plans",
                          choices=sorted(plan_catalog()),
                          help="workload plan captured alongside the sweep "
                               "(repeatable; adds a capture_plans node)")
    pipeline.add_argument("--sizes-gb", default=None,
                          help="captured sweep per job; the largest size is "
                               "the held-out validation target "
                               "(default: 0.25,0.5,1.0)")
    pipeline.add_argument("--fit-sizes-gb", default=None,
                          help="training subset of --sizes-gb for the fit "
                               "stage (default: all but the largest)")
    pipeline.add_argument("--seed", type=int, default=None)
    pipeline.add_argument("--nodes", type=int, default=None,
                          help="cluster nodes for the base campaign")
    pipeline.add_argument("--experiments", default=None, metavar="LIST",
                          help="comma-separated experiment nodes to port "
                               "onto the shared capture set (e12,e18)")
    pipeline.add_argument("--e12-input-gb", type=float, default=None)
    pipeline.add_argument("--e12-repeats", type=int, default=None)
    pipeline.add_argument("--e18-target-gb", type=float, default=None)
    pipeline.add_argument("--workers", type=int, default=None,
                          help="worker processes inside the capture stage")
    pipeline.add_argument("--on-failure", default="fail-fast",
                          choices=["fail-fast", "continue",
                                   "skip-descendants"],
                          help="failure propagation: stop at the first "
                               "quarantined node / finish independent "
                               "branches then fail / finish independent "
                               "branches and return the partial result")
    pipeline.add_argument("--retries", type=int, default=3,
                          help="attempt budget per node")
    pipeline.add_argument("--deadline", type=float, default=None, metavar="S",
                          help="per-node wall-clock deadline; a hung stage "
                               "is killed by the watchdog and retried")
    pipeline.add_argument("--telemetry", action="store_true",
                          help="write per-node telemetry subdirs "
                               "(keddah top DIR aggregates them)")
    pipeline.add_argument("--serve-port", type=int, default=None, metavar="N",
                          help="attach the live observability daemon for "
                               "the run; node transitions stream on /events")
    pipeline.add_argument("--serve-host", default="127.0.0.1")
    pipeline.add_argument("--alerts", default=None, metavar="RULES.json")

    serve = sub.add_parser(
        "serve", help="serve a telemetry directory over HTTP "
                      "(Prometheus /metrics, JSON endpoints, SSE /events)")
    serve.add_argument("--telemetry", required=True, metavar="DIR",
                       help="telemetry directory to serve (reloaded as the "
                            "artefacts change, tolerant of mid-write state)")
    serve.add_argument("--port", type=int, default=0,
                       help="port to bind (0 = ephemeral, printed on start)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--alerts", default=None, metavar="RULES.json",
                       help="alert rule file (threshold/derivative/absence "
                            "rules over metrics and probe series)")
    serve.add_argument("--alert-interval", type=float, default=1.0,
                       metavar="S", help="wall seconds between alert "
                                         "evaluation passes")
    serve.add_argument("--for-seconds", type=float, default=None, metavar="S",
                       help="serve for this long then exit (tests/demos); "
                            "default: until interrupted")

    top = sub.add_parser(
        "top", help="one-shot cluster view: metrics + probes from a running "
                    "serve daemon (URL) or a telemetry directory")
    top.add_argument("source",
                     help="http(s)://host:port of a serve daemon, or a "
                          "telemetry directory path")

    plans = sub.add_parser(
        "plans", help="list or describe the registered workload plans")
    plans.add_argument("action", nargs="?", default="list",
                       choices=["list", "show"],
                       help="list: one row per plan; show: the full stage "
                            "DAG of one plan")
    plans.add_argument("name", nargs="?", default=None,
                       help="plan name (with show)")

    store_cmd = sub.add_parser(
        "store", help="inspect, scrub or clear the persistent capture store")
    store_cmd.add_argument("action",
                           choices=["stats", "clear", "verify", "repair"],
                           help="stats: counters; clear: drop everything; "
                                "verify: scrub for truncated/corrupt/stale/"
                                "mis-addressed entries (exit 1 if any); "
                                "repair: scrub and quarantine bad entries "
                                "into <store>/quarantine/")
    store_cmd.add_argument("--store", default=None,
                           help="store directory (defaults to "
                                "$KEDDAH_CAPTURE_STORE)")

    fit = sub.add_parser("fit", help="fit a traffic model from traces")
    fit.add_argument("traces", nargs="+", help="capture .jsonl files")
    fit.add_argument("-o", "--output", required=True,
                     help="model output path (.json), or a directory "
                          "with --bundle")
    fit.add_argument("--bundle", action="store_true",
                     help="traces mix job kinds: fit one model per kind "
                          "into the output directory")

    generate = sub.add_parser("generate", help="sample synthetic traffic")
    generate.add_argument("--model", required=True)
    generate.add_argument("--input-gb", type=float, required=True)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("-o", "--output", required=True,
                          help="synthetic trace output path (.jsonl)")

    replay = sub.add_parser("replay", help="replay a trace through the network")
    replay.add_argument("trace")
    replay.add_argument("--time-scale", type=float, default=1.0)
    replay.add_argument("--backend", default="fluid",
                        choices=list(BACKEND_NAMES),
                        help="transport substrate to replay against")
    replay.add_argument("--engine", default="scalar",
                        choices=list(ENGINE_NAMES),
                        help="fluid-engine implementation to replay with "
                             "(same flow records; per-link utilisation may "
                             "differ in the last bits)")

    export = sub.add_parser("export", help="export a trace for a simulator")
    export.add_argument("trace")
    export.add_argument("--format",
                        choices=["csv", "ns3", "omnet", "json", "pcap"],
                        default="csv")
    export.add_argument("-o", "--output", required=True)

    report = sub.add_parser("report", help="print a trace's traffic breakdown")
    report.add_argument("trace")
    report.add_argument("--hotspots", action="store_true",
                        help="also print per-host traffic concentration")
    report.add_argument("--full", action="store_true",
                        help="print everything: breakdown, hotspots, "
                             "rack matrix and the traffic-over-time profile")
    report.add_argument("--telemetry", default=None, metavar="DIR",
                        help="also summarise a telemetry directory written "
                             "by capture/campaign --telemetry")

    trace_cmd = sub.add_parser(
        "trace", help="render a telemetry span tree (lifecycle trace)")
    trace_cmd.add_argument("spans",
                           help="spans.jsonl path, or a telemetry directory "
                                "containing one")
    trace_cmd.add_argument("--kinds", default=None,
                           help="comma-separated span kinds to show (e.g. "
                                "job,stage,task); hidden spans' children "
                                "are re-parented")
    trace_cmd.add_argument("--max-depth", type=int, default=None,
                           help="deepest tree level to print")
    trace_cmd.add_argument("--max-children", type=int, default=20,
                           help="children shown per span before eliding")
    trace_cmd.add_argument("--summary-only", action="store_true",
                           help="print only the per-kind summary table")

    validate = sub.add_parser(
        "validate", help="compare a synthetic trace against a capture")
    validate.add_argument("captured")
    validate.add_argument("synthetic")

    inspect = sub.add_parser("inspect", help="summarise a fitted model")
    inspect.add_argument("model", help="model JSON path")

    diff = sub.add_parser("diff", help="compare two fitted models")
    diff.add_argument("before", help="baseline model JSON")
    diff.add_argument("after", help="changed model JSON")
    diff.add_argument("--at-gb", type=float, default=1.0,
                      help="input size the laws are evaluated at")

    experiment = sub.add_parser(
        "experiment", help="regenerate an evaluation artefact (E1..E15, A1..A4)")
    experiment.add_argument("ids", nargs="+",
                            help="experiment ids (e.g. e01 e07 a2) or 'all'")
    experiment.add_argument("--markdown", default=None,
                            help="also write a markdown report to this path")

    workload = sub.add_parser(
        "workload", help="generate a synthetic multi-job workload trace")
    workload.add_argument("--models", required=True,
                          help="directory of per-kind model JSON files")
    workload.add_argument("--job", action="append", required=True,
                          metavar="KIND:GB[:START_S]",
                          help="one scheduled job (repeatable)")
    workload.add_argument("--seed", type=int, default=0)
    workload.add_argument("-o", "--output", required=True,
                          help="workload trace output path (.jsonl)")

    suite = sub.add_parser(
        "suite", help="run a multi-job workload suite on the simulator")
    suite.add_argument("--mix", default="micro",
                       choices=["micro", "shuffle-heavy", "analytics"])
    suite.add_argument("--count", type=int, default=6)
    suite.add_argument("--arrivals", default="uniform:20",
                       metavar="uniform:SPAN | poisson:RATE")
    suite.add_argument("--nodes", type=int, default=8)
    suite.add_argument("--scheduler", default="fifo",
                       choices=["fifo", "fair", "capacity", "drf"])
    suite.add_argument("--seed", type=int, default=0)
    suite.add_argument("-o", "--output", default=None,
                       help="optional directory for per-job trace files")
    return parser


def _resolve_store(path: Optional[str]):
    """A CaptureStore from --store, else $KEDDAH_CAPTURE_STORE, else None."""
    from repro.experiments.store import CaptureStore, store_from_env

    if path:
        return CaptureStore(path)
    return store_from_env()


def _telemetry_from_args(args: argparse.Namespace):
    """An enabled in-memory Telemetry when --telemetry DIR was given."""
    if not getattr(args, "telemetry", None):
        return None
    from repro.obs import Telemetry

    interval = getattr(args, "probe_interval", None)
    if interval is None:
        from repro.obs import DEFAULT_PROBE_INTERVAL
        interval = DEFAULT_PROBE_INTERVAL
    return Telemetry.enabled_in_memory(probe_interval=interval)


def _alert_engine(rules_path: Optional[str], broker):
    """An AlertEngine over a rule file, or None without one."""
    if not rules_path:
        return None
    from repro.obs import AlertEngine, load_rules

    return AlertEngine(load_rules(rules_path), broker=broker)


def _write_telemetry_dir(telemetry, directory: str) -> None:
    from repro.obs.export import write_telemetry

    paths = write_telemetry(telemetry, directory)
    telemetry.close()
    print(f"telemetry ({len(paths)} artefacts) -> {directory}")


def _plan_params_from_args(args: argparse.Namespace) -> dict:
    """Merge --scale and --plan-param K=V into one parameter dict."""
    import json

    params: dict = {}
    for item in args.plan_params:
        key, sep, raw = item.partition("=")
        if not sep or not key:
            raise ValueError(f"bad --plan-param {item!r}; expected K=V")
        try:
            params[key] = json.loads(raw)
        except json.JSONDecodeError:
            params[key] = raw
    if args.scale is not None:
        params["scale"] = args.scale
    return params


def cmd_capture(args: argparse.Namespace) -> int:
    if (args.job is None) == (args.plan is None):
        print("capture needs exactly one of --job or --plan")
        return 2
    if args.job is not None and (args.scale is not None or args.plan_params):
        print("--scale/--plan-param only apply to --plan captures")
        return 2
    config = HadoopConfig(block_size=args.block_mb * MB,
                          num_reducers=args.reducers,
                          replication=args.replication,
                          scheduler=args.scheduler)
    store = _resolve_store(args.store)
    telemetry = _telemetry_from_args(args)
    if args.plan is not None:
        try:
            params = _plan_params_from_args(args)
        except ValueError as exc:
            print(exc)
            return 2
        if store is not None:
            from repro.cluster.config import ClusterSpec
            from repro.experiments.runner import CampaignRunner, PlanPoint

            spec = ClusterSpec(num_nodes=args.nodes,
                               hosts_per_rack=args.hosts_per_rack,
                               backend=args.backend, engine=args.engine)
            point = PlanPoint.from_configs(args.plan, args.seed, spec, config,
                                           params)
            _, trace = CampaignRunner(store=store,
                                      telemetry=telemetry).run_point(point)
            origin = ("store" if store.registry.value("store.hits")
                      else "simulated")
        else:
            trace = run_capture(plan=args.plan, plan_params=params,
                                nodes=args.nodes, seed=args.seed,
                                config=config,
                                hosts_per_rack=args.hosts_per_rack,
                                telemetry=telemetry, backend=args.backend,
                                engine=args.engine)
            origin = "simulated"
        from repro.analysis.plans import stage_table

        print(render_table(stage_table(trace)))
    elif store is not None:
        from repro.cluster.config import ClusterSpec
        from repro.experiments.runner import CampaignRunner, CapturePoint

        spec = ClusterSpec(num_nodes=args.nodes,
                           hosts_per_rack=args.hosts_per_rack,
                           backend=args.backend, engine=args.engine)
        point = CapturePoint.from_configs(args.job, args.input_gb, args.seed,
                                          spec, config)
        _, trace = CampaignRunner(store=store,
                                  telemetry=telemetry).run_point(point)
        origin = ("store" if store.registry.value("store.hits")
                  else "simulated")
    else:
        trace = run_capture(args.job, input_gb=args.input_gb, nodes=args.nodes,
                            seed=args.seed, config=config,
                            hosts_per_rack=args.hosts_per_rack,
                            telemetry=telemetry, backend=args.backend,
                            engine=args.engine)
        origin = "simulated"
    trace.to_jsonl(args.output)
    print(f"captured {trace.flow_count()} flows "
          f"({trace.total_bytes() / MB:.1f} MiB, {origin}) -> {args.output}")
    if telemetry is not None:
        _write_telemetry_dir(telemetry, args.telemetry)
    return 0


def cmd_plans(args: argparse.Namespace) -> int:
    from repro.jobs.plan import make_plan

    if args.action == "show":
        if not args.name:
            print("plans show needs a plan name (see `keddah plans list`)")
            return 2
        try:
            plan = make_plan(args.name)
        except ValueError as exc:
            print(exc)
            return 2
        table = Table(title=f"plan {plan.name} "
                            f"(signature {plan.signature()[:12]})",
                      headers=["stage", "kind", "inputs", "reducers",
                               "overrides"])
        for stage in plan.topological_order():
            if stage.is_root:
                inputs = f"external {stage.input_gb} GiB"
            else:
                inputs = ", ".join(
                    f"{edge.source}" + ("" if edge.carryover == 1.0
                                        else f"x{edge.carryover}")
                    for edge in stage.inputs)
            overrides = stage.overrides()
            table.add_row(stage.name, stage.kind, inputs,
                          stage.num_reducers or "auto",
                          ", ".join(f"{k}={v}" for k, v in overrides.items())
                          or "-")
        if plan.score_rule:
            table.notes.append(f"score rule: {plan.score_rule}")
        if plan.params:
            table.notes.append(f"default params: {dict(plan.params)}")
        print(render_table(table))
        return 0
    table = Table(title="registered workload plans",
                  headers=["plan", "stages", "kinds", "score"])
    for name in sorted(plan_catalog()):
        plan = make_plan(name)
        table.add_row(name, len(plan.stages),
                      "→".join(stage.kind for stage in
                               plan.topological_order()),
                      plan.score_rule or "-")
    table.notes.append("run one with `keddah capture --plan NAME "
                       "-o trace.jsonl`; inspect with `keddah plans "
                       "show NAME`")
    print(render_table(table))
    return 0


def cmd_campaign(args: argparse.Namespace) -> int:
    import time

    from repro.capture.records import save_traces
    from repro.experiments.campaigns import (
        CampaignConfig,
        cache_stats,
        get_store,
        make_runner,
        set_store,
    )
    from repro.experiments.runner import (
        CapturePoint,
        default_workers,
        derive_seed,
    )
    from repro.experiments.supervision import Quarantine, RetryPolicy

    try:
        sizes = [float(part) for part in args.sizes_gb.split(",") if part.strip()]
    except ValueError:
        print(f"bad --sizes-gb {args.sizes_gb!r}; expected e.g. 0.25,0.5,1.0")
        return 2
    if not sizes:
        print("--sizes-gb named no sizes")
        return 2
    campaign = CampaignConfig(nodes=args.nodes,
                              hosts_per_rack=args.hosts_per_rack,
                              block_mb=args.block_mb,
                              num_reducers=args.reducers,
                              replication=args.replication,
                              scheduler=args.scheduler,
                              backend=args.backend,
                              engine=args.engine)
    store = _resolve_store(args.store)
    if args.invalidate:
        if store is None:
            print("--invalidate needs a store (--store or "
                  "$KEDDAH_CAPTURE_STORE)")
            return 2
        print(f"invalidated {store.clear()} store entries in {store.root}")
    workers = args.workers if args.workers > 0 else default_workers()
    points = [CapturePoint.from_campaign(job, gb, derive_seed(args.seed, index),
                                         campaign)
              for job in args.jobs
              for index, gb in enumerate(sizes)]
    if args.retries < 1:
        print(f"--retries must be >= 1, got {args.retries}")
        return 2
    quarantine_path = args.quarantine
    if quarantine_path is None and store is not None:
        quarantine_path = store.root / "quarantine.jsonl"
    quarantine = Quarantine(quarantine_path)
    policy = RetryPolicy(max_attempts=args.retries, deadline_s=args.deadline)
    # Route through the campaign cache hierarchy (memo + store), so
    # cache_stats() below reports what this run actually hit.  The
    # previous store is restored on exit (embedders share the global).
    previous_store = get_store()
    set_store(store)
    telemetry = _telemetry_from_args(args)
    server = None
    broker = None
    if args.serve_port is not None:
        from repro.obs import EventBroker, Telemetry
        from repro.obs.server import serve_telemetry

        if telemetry is None:
            # Registry-only live view: counters still work on a
            # disabled telemetry, captures stay byte-identical.
            telemetry = Telemetry.disabled()
        broker = EventBroker()
        engine = _alert_engine(args.alerts, broker)
        server = serve_telemetry(telemetry, port=args.serve_port,
                                 host=args.serve_host, broker=broker,
                                 engine=engine)
        print(f"live observability at {server.url} "
              f"(/metrics /snapshot /probes /spans /alerts /events)")
    runner = make_runner(workers, telemetry=telemetry, retry_policy=policy,
                         quarantine=quarantine, strict=False,
                         events=broker)
    started = time.perf_counter()
    try:
        outcomes = runner.run(points)
    finally:
        elapsed = time.perf_counter() - started
        if server is not None:
            print(f"serve daemon: {server.requests_served} request(s), "
                  f"{server.broker.published} event(s) published")
            server.stop()

    table = Table(title=f"campaign: {len(args.jobs)} job(s) x {len(sizes)} "
                        f"size(s), {workers} worker(s)",
                  headers=["job", "input GiB", "seed", "flows", "MiB", "JCT s"])
    for point, outcome in zip(points, outcomes):
        if outcome is None:
            table.add_row(point.job, point.input_gb, point.seed,
                          "-", "-", "quarantined")
            continue
        result, trace = outcome
        table.add_row(point.job, point.input_gb, point.seed,
                      trace.flow_count(),
                      round(trace.total_bytes() / MB, 1),
                      round(result.completion_time, 2))
    stats = runner.manifest()["stats"]
    table.notes.append(
        f"{elapsed:.2f}s wall; {stats['simulated']} simulated "
        f"({stats['parallel_simulated']} in parallel), "
        f"{stats['store_hits']} store hit(s), "
        f"{stats['memo_hits']} memo hit(s)")
    if stats["retries"] or stats["deadline_kills"]:
        table.notes.append(
            f"supervision: {stats['retries']} retrie(s), "
            f"{stats['deadline_kills']} deadline kill(s), "
            f"{stats['pool_failures']} pool failure(s)")
    print(render_table(table))
    caches = cache_stats()
    set_store(previous_store)
    memo = caches["memo"]
    line = (f"cache stats: memo {memo['hits']} hit(s) / "
            f"{memo['misses']} miss(es), {memo['entries']} entr(ies)")
    if "store" in caches:
        store_stats = caches["store"]
        line += (f"; store {store_stats['hits']} hit(s) / "
                 f"{store_stats['misses']} miss(es), "
                 f"{store_stats['writes']} write(s)")
    print(line)
    if telemetry is not None and args.telemetry:
        _write_telemetry_dir(telemetry, args.telemetry)
    if args.output:
        paths = save_traces([trace for _, trace in
                             (o for o in outcomes if o is not None)],
                            args.output)
        print(f"{len(paths)} traces -> {args.output}")
    if runner.failures:
        failed = Table(title=f"{len(runner.failures)} point(s) quarantined "
                             f"(campaign completed with partial results)",
                       headers=["job", "input GiB", "seed", "attempts",
                                "class", "fingerprint"])
        for failure in runner.failures:
            last = failure.fingerprints[-1] if failure.fingerprints else None
            failed.add_row(
                failure.job, failure.input_gb, failure.seed, failure.attempts,
                last.classification if last else "?",
                (f"{last.exception_type}: {last.message} "
                 f"[tb {last.traceback_sha256[:10]}]") if last else "?")
        if quarantine.path is not None:
            failed.notes.append(f"fingerprints -> {quarantine.path}")
        if store is not None:
            failed.notes.append(
                f"re-run with --store {store.root} to retry only the "
                f"quarantined point(s)")
        print(render_table(failed))
        return 1
    return 0


def _parse_float_list(text: str, flag: str):
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ValueError(
            f"bad {flag} {text!r}; expected e.g. 0.25,0.5,1.0") from None
    if not values:
        raise ValueError(f"{flag} named no sizes")
    return tuple(values)


def cmd_pipeline(args: argparse.Namespace) -> int:
    import time

    from repro.experiments.dag import (
        CACHED,
        DONE,
        DAGRunner,
        PipelineFailed,
    )
    from repro.experiments.pipelines import (
        PIPELINE_SPEC_FILE,
        PipelineSpec,
        build_pipeline,
        load_spec,
        save_spec,
    )
    from repro.experiments.supervision import Quarantine, RetryPolicy

    root = Path(args.pipeline_dir)
    spec_path = root / PIPELINE_SPEC_FILE

    def apply_overrides(base: PipelineSpec) -> PipelineSpec:
        overrides = {}
        if args.jobs:
            overrides["jobs"] = tuple(args.jobs)
        if args.plans:
            overrides["plans"] = tuple(args.plans)
        if args.sizes_gb is not None:
            overrides["sizes_gb"] = _parse_float_list(args.sizes_gb,
                                                      "--sizes-gb")
        if args.fit_sizes_gb is not None:
            overrides["fit_sizes_gb"] = _parse_float_list(args.fit_sizes_gb,
                                                          "--fit-sizes-gb")
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.nodes is not None:
            overrides["campaign"] = dict(base.campaign, nodes=args.nodes)
        if args.experiments is not None:
            overrides["experiments"] = tuple(
                part.strip() for part in args.experiments.split(",")
                if part.strip())
        if args.e12_input_gb is not None:
            overrides["e12_input_gb"] = args.e12_input_gb
        if args.e12_repeats is not None:
            overrides["e12_repeats"] = args.e12_repeats
        if args.e18_target_gb is not None:
            overrides["e18_target_gb"] = args.e18_target_gb
        if args.workers is not None:
            overrides["workers"] = args.workers
        return base.with_overrides(**overrides) if overrides else base

    if args.action == "resume" and not spec_path.is_file():
        print(f"{root}: no {spec_path.name} "
              f"(run `keddah pipeline run --dir {root}` first)")
        return 2
    try:
        if args.action == "resume":
            # Resume must rebuild the *identical* DAG: the saved spec
            # wins and workload flags are ignored (a changed workload
            # is a new `run`, which re-keys the affected nodes).
            spec = load_spec(root)
        else:
            base = load_spec(root) if spec_path.is_file() else PipelineSpec()
            spec = apply_overrides(base)
        dag = build_pipeline(spec)
    except ValueError as exc:
        print(f"bad pipeline spec: {exc}")
        return 2

    telemetry = None
    if args.telemetry:
        from repro.obs import Telemetry

        telemetry = Telemetry.enabled_in_memory()

    broker = None
    server = None
    if args.serve_port is not None and args.action in ("run", "resume"):
        from repro.obs import EventBroker, Telemetry
        from repro.obs.server import serve_telemetry

        if telemetry is None:
            telemetry = Telemetry.disabled()
        broker = EventBroker()
        engine = _alert_engine(args.alerts, broker)
        server = serve_telemetry(telemetry, port=args.serve_port,
                                 host=args.serve_host, broker=broker,
                                 engine=engine)
        print(f"live observability at {server.url} "
              f"(node transitions stream on /events)")

    if args.retries < 1:
        print(f"--retries must be >= 1, got {args.retries}")
        return 2
    runner = DAGRunner(
        dag, root,
        retry_policy=RetryPolicy(max_attempts=args.retries,
                                 deadline_s=args.deadline),
        quarantine=Quarantine(root / "quarantine.jsonl"),
        on_failure=args.on_failure,
        telemetry=telemetry,
        events=broker,
        node_telemetry=args.telemetry)

    if args.action == "plan":
        table = Table(title=f"pipeline plan: {len(dag)} node(s) under {root}",
                      headers=["node", "stage", "action", "after", "dir"])
        plan = runner.plan()
        for entry in plan:
            table.add_row(entry["node"], entry["stage"], entry["action"],
                          ",".join(entry["after"]) or "-",
                          entry["dir"] or "?")
        cached = sum(1 for entry in plan if entry["action"] == "cached")
        table.notes.append(f"{cached} cached, "
                           f"{len(plan) - cached} to run "
                           f"(stale-upstream nodes re-key once their "
                           f"upstream re-runs)")
        print(render_table(table))
        if server is not None:
            server.stop()
        return 0

    if args.action == "run":
        root.mkdir(parents=True, exist_ok=True)
        save_spec(root, spec)

    started = time.perf_counter()
    try:
        result = runner.run()
        failed = None
    except PipelineFailed as exc:
        result = exc.result
        failed = exc
    finally:
        elapsed = time.perf_counter() - started
        if server is not None:
            print(f"serve daemon: {server.requests_served} request(s), "
                  f"{server.broker.published} event(s) published")
            server.stop()

    table = Table(title=f"pipeline {dag.name}: {len(dag)} node(s) "
                        f"under {root}",
                  headers=["node", "stage", "state", "attempts", "dir"])
    for name in dag.topological_order():
        outcome = result.outcomes[name]
        table.add_row(name, outcome.stage, outcome.state,
                      outcome.attempts or "-", outcome.dir or "-")
    executed = result.in_state(DONE)
    cached = result.in_state(CACHED)
    table.notes.append(f"{elapsed:.2f}s wall; {len(executed)} executed, "
                       f"{len(cached)} cached")
    if result.failures or failed is not None:
        bad = result.in_state("quarantined")
        table.notes.append(f"quarantined: {', '.join(bad)} "
                           f"(fingerprints -> quarantine.jsonl); resume "
                           f"with `keddah pipeline resume --dir {root}`")
    if args.action == "resume":
        print(f"resuming {root}: {len(cached)} node(s) already complete")
    print(render_table(table))
    if telemetry is not None and args.telemetry:
        _write_telemetry_dir(telemetry, str(root / "telemetry"))
    if failed is not None or not result.ok:
        return 1
    return 0


def cmd_store(args: argparse.Namespace) -> int:
    store = _resolve_store(args.store)
    if store is None:
        print("no store configured: pass --store DIR or set "
              "$KEDDAH_CAPTURE_STORE")
        return 2
    if args.action == "clear":
        print(f"cleared {store.clear()} entries from {store.root}")
        return 0
    if args.action in ("verify", "repair"):
        report = store.verify(repair=(args.action == "repair"))
        table = Table(title=f"store scrub at {store.root} "
                            f"({'repair' if report.repaired else 'verify'})",
                      headers=["metric", "value"])
        table.add_row("entries scanned", report.scanned)
        table.add_row("ok", report.ok)
        table.add_row("corrupt", report.corrupt)
        table.add_row("stale", report.stale)
        table.add_row("mis-addressed", report.mismatched)
        table.add_row("tmp droppings", report.tmp_files)
        if report.repaired:
            table.add_row("quarantined", report.quarantined)
            table.add_row("tmp removed", report.removed_tmp)
        table.add_row("MiB scanned", round(report.bytes_scanned / MB, 2))
        for problem in report.problems:
            table.notes.append(problem)
        if report.repaired and report.quarantined:
            table.notes.append(f"bad entries moved to {store.quarantine_dir}")
        print(render_table(table))
        if not report.clean and not report.repaired:
            return 1
        return 0
    table = Table(title=f"capture store at {store.root}",
                  headers=["metric", "value"])
    table.add_row("entries", store.entry_count())
    table.add_row("size (MiB)", round(store.size_bytes() / MB, 2))
    print(render_table(table))
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    traces = [JobTrace.from_jsonl(path) for path in args.traces]
    if args.bundle:
        from repro.modeling.bundle import ModelBundle

        bundle = ModelBundle.fit(traces)
        paths = bundle.save(args.output)
        print(f"fitted {len(bundle)} model(s) for {bundle.kinds()} "
              f"-> {args.output} ({len(paths)} files)")
        return 0
    model = fit_job_model(traces)
    model.to_json(args.output)
    families = ", ".join(f"{name}={component.size_dist.family}"
                         for name, component in sorted(model.components.items()))
    print(f"fitted {model.kind} model from {len(traces)} trace(s): {families}")
    print(f"model -> {args.output}")
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    model = JobTrafficModel.from_json(args.model)
    trace = generate_trace(model, input_gb=args.input_gb, seed=args.seed)
    trace.to_jsonl(args.output)
    print(f"generated {trace.flow_count()} flows "
          f"({trace.total_bytes() / MB:.1f} MiB) for {args.input_gb} GiB "
          f"{model.kind} -> {args.output}")
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    trace = JobTrace.from_jsonl(args.trace)
    report = replay_trace(trace, time_scale=args.time_scale,
                          backend=args.backend, engine=args.engine)
    table = Table(title=f"replay of {args.trace}",
                  headers=["metric", "value"])
    table.add_row("flows", report.flow_count)
    table.add_row("bytes (MiB)", round(report.total_bytes / MB, 2))
    table.add_row("makespan (s)", round(report.makespan, 2))
    table.add_row("mean flow duration (s)", round(report.mean_flow_duration, 4))
    table.add_row("mean link utilisation", round(report.mean_link_utilisation, 4))
    table.add_row("peak link utilisation", round(report.peak_link_utilisation, 4))
    print(render_table(table))
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    trace = JobTrace.from_jsonl(args.trace)
    if args.format == "pcap":
        from repro.capture.pcap import synthesize_packets
        from repro.capture.pcapfile import write_pcap

        packets = [packet for flow in trace.flows
                   for packet in synthesize_packets(flow)]
        count = write_pcap(packets, args.output)
        print(f"exported {count} packets (pcap) -> {args.output}")
        return 0
    writers = {
        "csv": to_flow_schedule_csv,
        "ns3": to_ns3_script,
        "omnet": to_omnet_ini,
        "json": to_json,
    }
    count = writers[args.format](trace, args.output)
    print(f"exported {count} flows ({args.format}) -> {args.output}")
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import figures

    ids = sorted(figures.ALL_EXPERIMENTS) if "all" in args.ids else args.ids
    unknown = [i for i in ids if i not in figures.ALL_EXPERIMENTS]
    if unknown:
        print(f"unknown experiment id(s): {', '.join(unknown)}; "
              f"known: {', '.join(sorted(figures.ALL_EXPERIMENTS))}")
        return 2
    for experiment_id in ids:
        for table in figures.ALL_EXPERIMENTS[experiment_id]():
            print(render_table(table))
            print()
    if args.markdown:
        from repro.experiments.report import write_report

        path = write_report(args.markdown, ids)
        print(f"markdown report -> {path}")
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    from repro.modeling.health import check_model
    from repro.modeling.inspect import describe_model

    model = JobTrafficModel.from_json(args.model)
    for table in describe_model(model):
        print(render_table(table))
        print()
    warnings = check_model(model)
    if warnings:
        print("health checks:")
        for warning in warnings:
            print(f"  {warning}")
    else:
        print("health checks: clean")
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    from repro.modeling.diff import diff_table

    before = JobTrafficModel.from_json(args.before)
    after = JobTrafficModel.from_json(args.after)
    if before.kind != after.kind:
        print(f"models are for different job kinds: "
              f"{before.kind!r} vs {after.kind!r}")
        return 2
    print(render_table(diff_table(before, after, at_gb=args.at_gb,
                                  labels=(args.before, args.after))))
    return 0


def cmd_suite(args: argparse.Namespace) -> int:
    from repro.capture.records import save_traces
    from repro.cluster.config import ClusterSpec
    from repro.workloads import (
        ANALYTICS_MIX,
        MICRO_MIX,
        SHUFFLE_HEAVY_MIX,
        PoissonArrivals,
        UniformArrivals,
        WorkloadSuite,
    )

    mixes = {"micro": MICRO_MIX, "shuffle-heavy": SHUFFLE_HEAVY_MIX,
             "analytics": ANALYTICS_MIX}
    kind, _, value = args.arrivals.partition(":")
    if kind == "uniform":
        arrivals = UniformArrivals(span=float(value or 20))
    elif kind == "poisson":
        arrivals = PoissonArrivals(rate=float(value or 0.2))
    else:
        print(f"bad --arrivals {args.arrivals!r}")
        return 2
    suite = WorkloadSuite(mixes[args.mix], arrivals=arrivals, name=args.mix)
    config = HadoopConfig(block_size=32 * MB, num_reducers=4,
                          scheduler=args.scheduler)
    outcome = suite.run(count=args.count,
                        cluster_spec=ClusterSpec(num_nodes=args.nodes,
                                                 hosts_per_rack=4),
                        config=config, seed=args.seed)
    table = Table(title=f"suite {args.mix} x{args.count} ({args.scheduler})",
                  headers=["job", "kind", "arrival s", "JCT s", "MiB"])
    for result, trace, arrival in zip(outcome.results, outcome.traces,
                                      outcome.arrival_times):
        table.add_row(result.job_id, result.kind, round(arrival, 1),
                      round(result.completion_time, 2),
                      round(trace.total_bytes() / MB, 1))
    table.notes.append(f"makespan {outcome.makespan:.1f}s, mean JCT "
                       f"{outcome.mean_jct():.1f}s, traffic "
                       f"{outcome.total_bytes() / MB:.0f} MiB")
    print(render_table(table))
    if args.output:
        paths = save_traces(outcome.traces, args.output)
        print(f"{len(paths)} traces -> {args.output}")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    from repro.analysis.compare import validation_summary

    captured = JobTrace.from_jsonl(args.captured)
    synthetic = JobTrace.from_jsonl(args.synthetic)
    summary = validation_summary(captured, synthetic)
    table = Table(title=f"validation: {args.synthetic} vs {args.captured}",
                  headers=["component", "captured flows", "synthetic flows",
                           "count err", "volume err", "size KS"])
    for component, comparison in sorted(summary.components.items()):
        if comparison.captured_flows == 0 and comparison.synthetic_flows == 0:
            continue
        table.add_row(component, comparison.captured_flows,
                      comparison.synthetic_flows,
                      round(comparison.count_error, 3),
                      round(comparison.volume_error, 3),
                      round(comparison.size_ks.statistic, 3)
                      if comparison.size_ks else "-")
    table.notes.append(f"means: size KS {summary.mean_size_ks:.3f}, "
                       f"count err {summary.mean_count_error:.3f}, "
                       f"volume err {summary.mean_volume_error:.3f}")
    print(render_table(table))
    return 0


def cmd_workload(args: argparse.Namespace) -> int:
    from repro.generation.workload import ScheduledJob, generate_workload_trace
    from repro.modeling.bundle import ModelBundle

    schedule = []
    for entry in args.job:
        parts = entry.split(":")
        if len(parts) not in (2, 3):
            print(f"bad --job {entry!r}; expected KIND:GB[:START_S]")
            return 2
        kind, gb = parts[0], float(parts[1])
        start = float(parts[2]) if len(parts) == 3 else 0.0
        schedule.append(ScheduledJob(kind, input_gb=gb, start_s=start))
    bundle = ModelBundle.load(args.models)
    trace = generate_workload_trace(bundle, schedule, seed=args.seed)
    trace.to_jsonl(args.output)
    print(f"generated workload of {len(schedule)} jobs: "
          f"{trace.flow_count()} flows "
          f"({trace.total_bytes() / MB:.1f} MiB) -> {args.output}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    trace = JobTrace.from_jsonl(args.trace)
    meta = trace.meta
    table = Table(
        title=(f"{meta.job_id} ({meta.job_kind}, "
               f"{meta.input_bytes / (1024 * MB):.2f} GiB input)"),
        headers=["component", "flows", "MiB", "share", "cross-rack MiB"])
    for component, stats in component_breakdown(trace).items():
        if stats["flows"]:
            table.add_row(component, int(stats["flows"]),
                          round(stats["bytes"] / MB, 2),
                          f"{stats['share']:.1%}",
                          round(stats["cross_rack_bytes"] / MB, 2))
    table.notes.append(f"completion time: {meta.completion_time:.2f}s, "
                       f"maps: {meta.num_maps}, reduces: {meta.num_reduces}")
    print(render_table(table))
    if getattr(args, "hotspots", False) or getattr(args, "full", False):
        from repro.analysis.hotspots import hotspot_table

        print()
        print(render_table(hotspot_table(trace)))
    if getattr(args, "full", False):
        from repro.analysis.matrix import rack_matrix_table
        from repro.analysis.timeseries import phase_profile

        print()
        print(render_table(rack_matrix_table(trace)))
        print()
        print(render_table(phase_profile(trace)))
    if getattr(args, "telemetry", None):
        from repro.obs.export import (
            load_telemetry_dir,
            metrics_table,
            probes_table,
            span_summary_table,
        )

        metrics, probes, spans = load_telemetry_dir(args.telemetry)
        print()
        print(render_table(metrics_table(
            metrics, title=f"telemetry metrics ({args.telemetry})")))
        if probes.series:
            print()
            print(render_table(probes_table(probes)))
        if spans:
            print()
            print(render_table(span_summary_table(spans)))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import time

    from repro.obs import EventBroker
    from repro.obs.server import ENDPOINTS, serve_directory

    if not Path(args.telemetry).is_dir():
        print(f"no telemetry directory at {args.telemetry} "
              f"(run capture/campaign --telemetry DIR first)")
        return 2
    broker = EventBroker()
    engine = _alert_engine(args.alerts, broker)
    server = serve_directory(args.telemetry, port=args.port, host=args.host,
                             broker=broker, engine=engine,
                             alert_interval=args.alert_interval)
    print(f"serving telemetry dir {args.telemetry} at {server.url}")
    print(f"endpoints: {' '.join(ENDPOINTS)}")
    if engine is not None:
        print(f"alerts: {len(engine.rules)} rule(s) from {args.alerts}, "
              f"evaluated every {args.alert_interval}s")
    try:
        if args.for_seconds is not None:
            time.sleep(args.for_seconds)
        else:
            while True:
                time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    print(f"served {server.requests_served} request(s)")
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    from repro.obs.export import metrics_table, probes_table
    from repro.obs.probes import ProbeLog

    if args.source.startswith(("http://", "https://")):
        import json as _json
        from urllib.request import urlopen

        base = args.source.rstrip("/")

        def _fetch(endpoint):
            with urlopen(f"{base}{endpoint}", timeout=10) as response:
                return _json.loads(response.read().decode("utf-8"))

        try:
            health = _fetch("/healthz")
            metrics = _fetch("/snapshot")
            probes = ProbeLog.from_dict(_fetch("/probes"))
        except OSError as exc:
            print(f"cannot reach serve daemon at {base}: {exc}")
            return 2
        source = health.get("source", {})
        print(f"{base}: {source.get('kind', '?')} source, "
              f"up {health.get('uptime_s', 0):.0f}s, "
              f"{health.get('requests_served', 0)} request(s) served")
        firing = health.get("alerts_firing") or []
        if firing:
            print(f"ALERTS FIRING: {', '.join(firing)}")
    else:
        from repro.obs.server import DirSource

        if not Path(args.source).is_dir():
            print(f"{args.source}: not a URL or telemetry directory")
            return 2
        source = DirSource(args.source)
        metrics = source.metrics_snapshot()
        probes = source.probes()
    print(render_table(metrics_table(
        metrics, title=f"cluster metrics ({args.source})")))
    if probes.series:
        print()
        print(render_table(probes_table(probes)))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.export import render_span_tree, span_summary_table
    from repro.obs.trace import load_spans

    path = Path(args.spans)
    if path.is_dir():
        path = path / "spans.jsonl"
    if not path.is_file():
        print(f"no span stream at {path} (run capture --telemetry DIR first)")
        return 2
    spans = load_spans(str(path))
    if not spans:
        print(f"{path}: no spans recorded")
        return 0
    print(render_table(span_summary_table(spans, title=f"spans in {path}")))
    if not args.summary_only:
        kinds = ([part.strip() for part in args.kinds.split(",") if part.strip()]
                 if args.kinds else None)
        print()
        print(render_span_tree(spans, max_depth=args.max_depth,
                               max_children=args.max_children, kinds=kinds))
    return 0


_COMMANDS = {
    "capture": cmd_capture,
    "campaign": cmd_campaign,
    "pipeline": cmd_pipeline,
    "plans": cmd_plans,
    "store": cmd_store,
    "fit": cmd_fit,
    "generate": cmd_generate,
    "replay": cmd_replay,
    "export": cmd_export,
    "report": cmd_report,
    "serve": cmd_serve,
    "top": cmd_top,
    "trace": cmd_trace,
    "experiment": cmd_experiment,
    "workload": cmd_workload,
    "validate": cmd_validate,
    "suite": cmd_suite,
    "inspect": cmd_inspect,
    "diff": cmd_diff,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early; not an error.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
