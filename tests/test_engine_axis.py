"""The engine axis: selection, validation, invariance of keys and RNG.

The engine knob must reach the fluid backend from every entry point
(ClusterSpec, CampaignConfig, api, CLI, replay), reject junk with a
readable error at each of them, and — because both engines produce
byte-identical captures — stay *out* of every cache/store key.
"""

import pytest

from repro.capture.records import JobTrace
from repro.cli import build_parser
from repro.cluster.config import ClusterSpec, HadoopConfig
from repro.cluster.topology import build_topology
from repro.cluster.units import MB
from repro.experiments.campaigns import CampaignConfig
from repro.experiments.runner import CapturePoint
from repro.generation.replay import replay_trace
from repro.net.backend import ENGINE_NAMES, make_backend
from repro.net.network import FlowNetwork
from repro.simkit.core import Simulator

pytest.importorskip("numpy")


def _sim():
    return Simulator()


def _topology():
    return build_topology("tree", num_hosts=4, hosts_per_rack=2)


# -- validation at every layer ---------------------------------------------------------


def test_engine_names_registry():
    assert ENGINE_NAMES == ("scalar", "vectorized")


def test_flow_network_rejects_unknown_engine():
    with pytest.raises(ValueError, match="unknown fluid engine 'turbo'"):
        FlowNetwork(_sim(), _topology(), engine="turbo")


def test_cluster_spec_rejects_unknown_engine():
    with pytest.raises(ValueError, match="unknown engine"):
        ClusterSpec(engine="turbo")


def test_campaign_config_rejects_unknown_engine():
    with pytest.raises(ValueError, match="unknown engine"):
        CampaignConfig(engine="turbo").cluster_spec()


def test_cli_rejects_unknown_engine(capsys):
    parser = build_parser()
    for argv in (["capture", "--job", "terasort", "-o", "x.jsonl",
                  "--engine", "turbo"],
                 ["campaign", "--job", "terasort", "--engine", "turbo"],
                 ["replay", "trace.jsonl", "--engine", "turbo"]):
        with pytest.raises(SystemExit) as excinfo:
            parser.parse_args(argv)
        assert excinfo.value.code == 2
        assert "--engine" in capsys.readouterr().err


def test_cli_accepts_engine_on_all_three_commands():
    parser = build_parser()
    capture = parser.parse_args(["capture", "--job", "terasort",
                                 "-o", "x.jsonl", "--engine", "vectorized"])
    assert capture.engine == "vectorized"
    campaign = parser.parse_args(["campaign", "--job", "terasort",
                                  "--engine", "vectorized"])
    assert campaign.engine == "vectorized"
    replay = parser.parse_args(["replay", "t.jsonl", "--engine", "scalar"])
    assert replay.engine == "scalar"


# -- plumbing ---------------------------------------------------------------------------


def test_make_backend_passes_engine_to_fluid():
    net = make_backend("fluid", _sim(), _topology(), engine="vectorized")
    assert net.engine == "vectorized"
    assert type(net.allocator).__name__ == "VectorizedFairShareAllocator"


def test_make_backend_defaults_to_scalar():
    net = make_backend("fluid", _sim(), _topology())
    assert net.engine == "scalar"
    assert type(net.allocator).__name__ == "FairShareAllocator"


def test_non_fluid_backends_ignore_engine():
    analytic = make_backend("analytic", _sim(), _topology(),
                            engine="vectorized")
    record = make_backend("record", _sim(), _topology(), engine="vectorized")
    assert analytic.name == "analytic"
    assert record.name == "record"


def test_engine_gauge_and_perf_counters():
    sim = _sim()
    net = make_backend("fluid", sim, _topology(), engine="vectorized")
    snapshot = sim.telemetry.registry.snapshot()
    gauges = {entry["name"] for entry in snapshot}
    assert "net.engine" in gauges
    assert "net.waterfill_rounds" in gauges
    engine_rows = [entry for entry in snapshot
                   if entry["name"] == "net.engine"]
    assert {"engine": "vectorized"} in [entry["labels"]
                                        for entry in engine_rows]
    for name in ("net.recomputes", "net.allocator_seconds", "net.flushes"):
        assert name in gauges


# -- key invariance ---------------------------------------------------------------------


def test_cluster_spec_to_dict_omits_engine():
    spec = ClusterSpec(engine="vectorized")
    data = spec.to_dict()
    assert "engine" not in data
    # Round trips both with and without the field present.
    assert ClusterSpec.from_dict(data).engine == "scalar"
    data["engine"] = "vectorized"
    assert ClusterSpec.from_dict(data).engine == "vectorized"


def test_campaign_config_to_dict_omits_engine():
    assert "engine" not in CampaignConfig(engine="vectorized").to_dict()


def test_capture_point_keys_are_engine_invariant():
    scalar = CapturePoint.from_campaign(
        "terasort", 0.25, 7, CampaignConfig(engine="scalar"))
    vectorized = CapturePoint.from_campaign(
        "terasort", 0.25, 7, CampaignConfig(engine="vectorized"))
    assert scalar.key() == vectorized.key()
    assert scalar.logical_key() == vectorized.logical_key()
    # ...while the spec carried to workers still knows the engine.
    assert vectorized.cluster_spec.engine == "vectorized"


# -- end-to-end reach -------------------------------------------------------------------


def _capture_trace():
    from repro.api import run_capture

    return run_capture("terasort", input_gb=0.1, nodes=4, seed=3,
                       config=HadoopConfig(block_size=32 * MB,
                                           num_reducers=1))


def test_replay_engines_agree():
    trace = _capture_trace()
    scalar = replay_trace(trace, engine="scalar")
    vectorized = replay_trace(trace, engine="vectorized")
    assert scalar.flow_count == vectorized.flow_count
    assert scalar.total_bytes == vectorized.total_bytes
    assert scalar.makespan == vectorized.makespan
    assert scalar.mean_flow_duration == vectorized.mean_flow_duration


def test_api_run_capture_engine_override():
    from repro.api import run_capture

    trace = run_capture("terasort", input_gb=0.1, nodes=4, seed=3,
                        config=HadoopConfig(block_size=32 * MB,
                                            num_reducers=1),
                        engine="vectorized")
    assert isinstance(trace, JobTrace)
    assert trace.flow_count() > 0
