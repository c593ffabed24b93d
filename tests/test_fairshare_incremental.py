"""Differential tests: FairShareAllocator vs the reference allocator.

The incremental allocator is only allowed to exist because it is
indistinguishable from :func:`repro.net.fairshare.max_min_rates`:

* randomized topologies/caps (>= 200 cases) must agree within 1e-6,
* arbitrary add/remove churn must leave the persistent state exactly
  equivalent to a from-scratch build,
* a seeded end-to-end terasort must produce flow-for-flow identical
  traces with batching on and off (the legacy recompute-per-change
  mode).

The vectorized engine (:mod:`repro.net.vectorized`) is held to the
same oracle *plus* a stronger end-to-end pin: a seeded terasort's
capture must be **byte-identical** across engines, because both
perform the same IEEE-754 round arithmetic by construction.
"""

import random

import pytest

from repro.cluster.config import ClusterSpec, HadoopConfig
from repro.cluster.units import MB
from repro.jobs import make_job
from repro.mapreduce.cluster import HadoopCluster
from repro.net.backend import make_backend
from repro.net.fairshare import (
    FairShareAllocator,
    allocation_is_feasible,
    bottlenecked_flows,
    max_min_rates,
)

try:
    from repro.net.vectorized import VectorizedFairShareAllocator
    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - numpy is in the toolchain
    HAVE_NUMPY = False

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY,
                                 reason="vectorized engine needs numpy")

REL_TOL = 1e-6


def _random_scenario(rng):
    """One random fabric: links with capacities, flows with paths/caps."""
    num_links = rng.randint(1, 12)
    links = [f"l{i}" for i in range(num_links)]
    capacities = {link: rng.uniform(1.0, 1000.0) for link in links}
    num_flows = rng.randint(1, 24)
    flow_links = {}
    caps = {}
    for index in range(num_flows):
        path_len = rng.randint(0 if rng.random() < 0.1 else 1,
                               min(4, num_links))
        flow_links[f"f{index}"] = rng.sample(links, path_len)
        if rng.random() < 0.4:
            caps[f"f{index}"] = rng.uniform(0.5, 2000.0)
    return capacities, flow_links, caps


def _build_allocator(capacities, flow_links, caps):
    allocator = FairShareAllocator(capacities)
    for flow, links in flow_links.items():
        allocator.add_flow(flow, links, caps.get(flow))
    return allocator


def _assert_rates_match(incremental, reference, context=""):
    assert set(incremental) == set(reference), context
    for flow, expected in reference.items():
        got = incremental[flow]
        if expected == float("inf"):
            assert got == float("inf"), f"{context}: {flow}"
        else:
            assert got == pytest.approx(expected, rel=REL_TOL), (
                f"{context}: flow {flow}: incremental={got} reference={expected}")


def test_differential_200_randomized_cases():
    """>= 200 random fabrics: heap allocator == reference water-filling."""
    for seed in range(250):
        rng = random.Random(seed)
        capacities, flow_links, caps = _random_scenario(rng)
        reference = max_min_rates(flow_links, capacities, caps)
        allocator = _build_allocator(capacities, flow_links, caps)
        incremental = allocator.rates()
        _assert_rates_match(incremental, reference, context=f"seed {seed}")
        routed = {f: l for f, l in flow_links.items() if l}
        assert allocation_is_feasible(
            {f: incremental[f] for f in routed}, routed, capacities)


def test_differential_add_remove_churn():
    """Interleaved add/remove sequences keep state equal to a fresh build."""
    for seed in range(40):
        rng = random.Random(1000 + seed)
        capacities, flow_links, caps = _random_scenario(rng)
        allocator = FairShareAllocator(capacities)
        active = {}
        pool = list(flow_links)
        for step in range(60):
            if active and (rng.random() < 0.4 or not pool):
                flow = rng.choice(list(active))
                del active[flow]
                allocator.remove_flow(flow)
            elif pool:
                flow = pool.pop(rng.randrange(len(pool)))
                active[flow] = flow_links[flow]
                allocator.add_flow(flow, flow_links[flow], caps.get(flow))
            reference = max_min_rates(
                active, capacities, {f: caps[f] for f in active if f in caps})
            _assert_rates_match(allocator.rates(), reference,
                                context=f"seed {seed} step {step}")


def test_allocator_rejects_misuse():
    allocator = FairShareAllocator({"l": 10.0})
    with pytest.raises(ValueError):
        allocator.set_capacity("bad", 0.0)
    with pytest.raises(KeyError):
        allocator.add_flow("f", ["unknown-link"])
    allocator.add_flow("f", ["l"])
    with pytest.raises(ValueError):
        allocator.add_flow("f", ["l"])  # duplicate
    with pytest.raises(ValueError):
        allocator.add_flow("g", ["l"], cap=-1.0)
    with pytest.raises(KeyError):
        allocator.remove_flow("never-added")
    assert len(allocator) == 1 and "f" in allocator
    allocator.remove_flow("f")
    assert len(allocator) == 0


def test_allocator_counts_recomputes_and_time():
    allocator = FairShareAllocator({"l": 100.0})
    allocator.add_flow("a", ["l"])
    allocator.add_flow("b", ["l"], cap=10.0)
    first = allocator.rates()
    assert first["a"] == pytest.approx(90.0)
    assert first["b"] == pytest.approx(10.0)
    allocator.remove_flow("b")
    second = allocator.rates()
    assert second == {"a": pytest.approx(100.0)}
    assert allocator.recomputes == 2
    assert allocator.allocator_seconds >= 0.0


def test_linkless_flows_get_cap_or_infinity():
    allocator = FairShareAllocator()
    allocator.add_flow("free", [])
    allocator.add_flow("capped", [], cap=7.0)
    rates = allocator.rates()
    assert rates["free"] == float("inf")
    assert rates["capped"] == 7.0


def _run_terasort(batch_updates):
    cluster = HadoopCluster(
        ClusterSpec(num_nodes=8, hosts_per_rack=4),
        HadoopConfig(block_size=32 * MB, num_reducers=2), seed=7)
    cluster.net.batch_updates = batch_updates
    results, traces = cluster.run(
        [make_job("terasort", input_gb=0.25, job_id="equiv")])
    assert not results[0].failed
    return cluster, traces[0]


def _comparable(trace):
    """Flow records minus process-global counters.

    ``flow_id`` and the ephemeral port numbers are derived from
    module-level ``itertools.count`` streams (flow ids, write ids,
    block ids), so the second simulation in one process draws different
    values regardless of any engine change.  Endpoints, sizes and the
    *exact* start/end timestamps — the statistics Keddah models — stay.
    """
    return [
        (r.src, r.dst, r.size, r.start, r.end,
         r.component, r.service, r.job_id)
        for r in trace.flows
    ]


def test_seeded_terasort_trace_identical_with_and_without_batching():
    """Tentpole pin: batching must not change the captured traffic at all.

    Same seed, same job, batched vs legacy recompute-per-change mode:
    every flow's endpoints, ports, size and (exact) start/end times must
    match.  Only the number of rate recomputations may differ.
    """
    batched_cluster, batched = _run_terasort(True)
    legacy_cluster, legacy = _run_terasort(False)
    assert _comparable(batched) == _comparable(legacy)
    # The whole point: batching strictly reduces recompute work.
    batched_count = batched_cluster.sim.telemetry.registry.value
    legacy_count = legacy_cluster.sim.telemetry.registry.value
    assert batched_count("net.recomputes") < legacy_count("net.recomputes")
    assert batched_count("net.flows_batched") > 0
    assert legacy_count("net.flushes") == 0


# -- the vectorized engine vs the scalar oracle ---------------------------------------


def _build_vectorized(capacities, flow_links, caps):
    allocator = VectorizedFairShareAllocator(capacities)
    for flow, links in flow_links.items():
        allocator.add_flow(flow, links, caps.get(flow))
    return allocator


@needs_numpy
def test_vectorized_differential_250_randomized_cases():
    """>= 250 random fabrics: numpy water-filling == scalar oracle."""
    for seed in range(250):
        rng = random.Random(seed)
        capacities, flow_links, caps = _random_scenario(rng)
        oracle = _build_allocator(capacities, flow_links, caps).rates()
        vectorized = _build_vectorized(capacities, flow_links, caps).rates()
        _assert_rates_match(vectorized, oracle, context=f"seed {seed}")
        routed = {f: l for f, l in flow_links.items() if l}
        assert allocation_is_feasible(
            {f: vectorized[f] for f in routed}, routed, capacities)


@needs_numpy
def test_vectorized_differential_churn_and_capacity_updates():
    """Add/remove churn + live capacity changes track the scalar engine."""
    for seed in range(40):
        rng = random.Random(2000 + seed)
        capacities, flow_links, caps = _random_scenario(rng)
        scalar = FairShareAllocator(capacities)
        vectorized = VectorizedFairShareAllocator(capacities)
        active = {}
        pool = list(flow_links)
        for step in range(60):
            roll = rng.random()
            if active and (roll < 0.35 or not pool):
                flow = rng.choice(list(active))
                del active[flow]
                scalar.remove_flow(flow)
                vectorized.remove_flow(flow)
            elif roll < 0.45:
                link = rng.choice(list(capacities))
                capacities[link] = rng.uniform(1.0, 1000.0)
                scalar.set_capacity(link, capacities[link])
                vectorized.set_capacity(link, capacities[link])
            elif pool:
                flow = pool.pop(rng.randrange(len(pool)))
                active[flow] = flow_links[flow]
                scalar.add_flow(flow, flow_links[flow], caps.get(flow))
                vectorized.add_flow(flow, flow_links[flow], caps.get(flow))
            _assert_rates_match(vectorized.rates(), scalar.rates(),
                                context=f"seed {seed} step {step}")


@needs_numpy
def test_vectorized_rates_are_bitwise_equal_to_scalar():
    """Stronger than 1e-6: identical round arithmetic → identical bits.

    This is what makes captures byte-identical across engines; if this
    ever regresses, the end-to-end byte pin below explains *where*.
    """
    for seed in range(100):
        rng = random.Random(seed)
        capacities, flow_links, caps = _random_scenario(rng)
        oracle = _build_allocator(capacities, flow_links, caps).rates()
        vectorized = _build_vectorized(capacities, flow_links, caps).rates()
        assert oracle == vectorized, f"seed {seed}"


@needs_numpy
def test_vectorized_rejects_misuse_like_scalar():
    allocator = VectorizedFairShareAllocator({"l": 10.0})
    with pytest.raises(ValueError):
        allocator.set_capacity("bad", 0.0)
    with pytest.raises(KeyError):
        allocator.add_flow("f", ["unknown-link"])
    allocator.add_flow("f", ["l"])
    with pytest.raises(ValueError):
        allocator.add_flow("f", ["l"])  # duplicate
    with pytest.raises(ValueError):
        allocator.add_flow("g", ["l"], cap=-1.0)
    with pytest.raises(KeyError):
        allocator.remove_flow("never-added")
    assert len(allocator) == 1 and "f" in allocator
    allocator.remove_flow("f")
    assert len(allocator) == 0


@needs_numpy
def test_vectorized_linkless_and_counters():
    allocator = VectorizedFairShareAllocator({"l": 100.0})
    allocator.add_flow("free", [])
    allocator.add_flow("capped", [], cap=7.0)
    allocator.add_flow("a", ["l"])
    rates = allocator.rates()
    assert rates["free"] == float("inf")
    assert rates["capped"] == 7.0
    assert rates["a"] == pytest.approx(100.0)
    assert all(isinstance(rate, float) for rate in rates.values())
    allocator.remove_flow("a")
    allocator.rates()
    assert allocator.recomputes == 2
    assert allocator.rounds >= 1
    assert allocator.allocator_seconds >= 0.0


@needs_numpy
def test_vectorized_slot_recycling_reuses_storage():
    """Heavy add/remove churn recycles slots instead of growing arrays."""
    allocator = VectorizedFairShareAllocator({"l": 100.0})
    for round_index in range(50):
        for index in range(8):
            allocator.add_flow(f"f{round_index}_{index}", ["l"])
        rates = allocator.rates()
        assert len(rates) == 8
        for index in range(8):
            allocator.remove_flow(f"f{round_index}_{index}")
    # 8 concurrent flows ever; storage must not have grown past the
    # initial geometric doublings for that population.
    assert allocator._hi <= 16


# -- tolerance-aware helpers (engine-agnostic rate dicts) ------------------------------


def test_allocation_is_feasible_accepts_tolerant_rates():
    capacities = {"l": 100.0}
    flow_links = {"a": ["l"], "b": ["l"]}
    assert allocation_is_feasible({"a": 50.0, "b": 50.0}, flow_links, capacities)
    # A hair over capacity stays feasible within the tolerance...
    assert allocation_is_feasible({"a": 50.0, "b": 50.0 + 4e-5},
                                  flow_links, capacities)
    # ...a real violation does not.
    assert not allocation_is_feasible({"a": 60.0, "b": 50.0},
                                      flow_links, capacities)
    # Flows missing from the rate dict (e.g. not yet allocated) and
    # linkless flows are simply not load; they never crash the check.
    assert allocation_is_feasible({"a": 100.0},
                                  {"a": ["l"], "ghost": ["l"], "free": []},
                                  capacities)


@needs_numpy
def test_helpers_accept_rates_from_either_engine():
    import numpy as np

    capacities = {"l": 100.0, "m": 50.0}
    flow_links = {"a": ["l", "m"], "b": ["l"], "free": []}
    scalar_rates = _build_allocator(capacities, flow_links, {}).rates()
    vector_rates = _build_vectorized(capacities, flow_links, {}).rates()
    for rates in (scalar_rates, vector_rates,
                  {f: np.float64(r) for f, r in vector_rates.items()
                   if r != float("inf")}):
        assert allocation_is_feasible(rates, flow_links, capacities)
        bottled = bottlenecked_flows(rates, flow_links, capacities)
        assert bottled["a"] and bottled["b"]
    assert bottlenecked_flows(scalar_rates, flow_links, capacities)["free"]


def test_bottlenecked_flows_skips_missing_and_coerces():
    capacities = {"l": 100.0}
    flow_links = {"a": ["l"], "ghost": ["l"]}
    bottled = bottlenecked_flows({"a": 100.0}, flow_links, capacities)
    assert bottled == {"a": True}
    capped = bottlenecked_flows({"c": 7.0}, {"c": ["l"]}, capacities,
                                caps={"c": 7.0})
    assert capped["c"]


# -- cap classes: flows sharing one cap value ------------------------------------------


def _cap_class_scenario(rng):
    """A random fabric whose capped flows share 2-3 cap values.

    Cap values are drawn around the first round's link fair shares:
    exactly on one, within ``_EPS`` either side (ties grouped into one
    round), well below (the cap binds before any link) and well above
    (links freeze part of the class first).  Linkless flows draw from
    the same values.
    """
    capacities, flow_links, _ = _random_scenario(rng)
    if rng.random() < 0.5:
        flow_links["local"] = []
    loads = {}
    for links in flow_links.values():
        for link in set(links):
            loads[link] = loads.get(link, 0) + 1
    shares = [capacities[link] / count for link, count in loads.items()]
    values = []
    for _ in range(rng.randint(2, 3)):
        share = rng.choice(shares) if shares else rng.uniform(1.0, 1000.0)
        values.append(share * rng.choice(
            (1.0, 1.0 + 5e-10, 1.0 - 5e-10, 0.5, 1.7, 3.0)))
    caps = {flow: rng.choice(values) for flow in flow_links
            if rng.random() < 0.7}
    return capacities, flow_links, caps


def _class_coverage(rates, flow_links, caps, seen):
    """Tally which cap-class situations an allocation exercised."""
    by_cap = {}
    for flow, cap in caps.items():
        if flow_links[flow]:
            by_cap.setdefault(cap, []).append(rates[flow])
        else:
            seen["linkless"] += 1
    for cap, members in by_cap.items():
        at_cap = [rate for rate in members if rate == cap]
        below = [rate for rate in members if rate < cap * (1 - 1e-9)]
        tied = [rate for rate in members
                if rate != cap and abs(rate - cap) <= cap * 1e-9]
        seen["binds"] += bool(at_cap)
        seen["partly_frozen"] += bool(at_cap and below)
        seen["tied"] += bool(tied)


@needs_numpy
def test_cap_class_differential_randomized_cases():
    """Shared caps: scalar == vectorized, and both match the oracle."""
    seen = {"binds": 0, "partly_frozen": 0, "tied": 0, "linkless": 0}
    for seed in range(300):
        rng = random.Random(5000 + seed)
        capacities, flow_links, caps = _cap_class_scenario(rng)
        scalar = _build_allocator(capacities, flow_links, caps).rates()
        vectorized = _build_vectorized(capacities, flow_links, caps).rates()
        assert scalar == vectorized, f"seed {seed}"
        _assert_rates_match(scalar, max_min_rates(flow_links, capacities, caps),
                            context=f"seed {seed}")
        _class_coverage(scalar, flow_links, caps, seen)
    assert all(seen.values()), seen


@needs_numpy
def test_cap_class_churn_empties_and_refills_classes():
    """Add/remove churn over shared caps: a class that empties and is
    refilled behaves like a fresh one, on both engines."""
    refills = 0
    for seed in range(60):
        rng = random.Random(7000 + seed)
        capacities, flow_links, caps = _cap_class_scenario(rng)
        scalar = FairShareAllocator(capacities)
        vectorized = VectorizedFairShareAllocator(capacities)
        active = {}
        emptied = set()
        for step in range(80):
            if active and rng.random() < 0.45:
                flow = rng.choice(list(active))
                del active[flow]
                scalar.remove_flow(flow)
                vectorized.remove_flow(flow)
                cap = caps.get(flow)
                if cap is not None and not any(
                        caps.get(other) == cap for other in active):
                    emptied.add(cap)
            else:
                inactive = [flow for flow in flow_links if flow not in active]
                if not inactive:
                    continue
                flow = rng.choice(inactive)
                active[flow] = flow_links[flow]
                scalar.add_flow(flow, flow_links[flow], caps.get(flow))
                vectorized.add_flow(flow, flow_links[flow], caps.get(flow))
                if caps.get(flow) in emptied:
                    emptied.discard(caps[flow])
                    refills += 1
            got = scalar.rates()
            assert got == vectorized.rates(), f"seed {seed} step {step}"
            reference = max_min_rates(
                active, capacities, {f: caps[f] for f in active if f in caps})
            _assert_rates_match(got, reference,
                                context=f"seed {seed} step {step}")
    assert refills > 0


# -- end-to-end: byte-identical captures across engines --------------------------------


def _reset_counter_streams():
    """Rewind the process-global id streams the capture bytes embed.

    Container/block ids come from module-level ``itertools.count``
    streams, so the *second* simulation in one process would differ in
    ids (and the ports derived from them) for reasons that have nothing
    to do with the engine under test.  Flow ids no longer need
    rewinding: each backend owns its own stream, and job ids belong to
    the cluster that runs the job.
    """
    import itertools

    import repro.hdfs.blocks as blocks
    import repro.yarn.containers as containers

    containers._container_ids = itertools.count(1)
    blocks._block_ids = itertools.count(1)


def _run_terasort_engine(engine):
    _reset_counter_streams()
    cluster = HadoopCluster(
        ClusterSpec(num_nodes=8, hosts_per_rack=4, engine=engine),
        HadoopConfig(block_size=32 * MB, num_reducers=2), seed=7)
    results, traces = cluster.run(
        [make_job("terasort", input_gb=0.25, job_id="equiv")])
    assert not results[0].failed
    return cluster, traces[0]


@needs_numpy
def test_seeded_terasort_capture_byte_identical_across_engines(tmp_path):
    """The tentpole acceptance pin: same seed, two engines, same bytes.

    Full-precision float timestamps and sizes are serialised with no
    rounding, so this only passes if every allocated rate is IEEE-754
    identical between the scalar and vectorized water-filling.
    """
    scalar_cluster, scalar_trace = _run_terasort_engine("scalar")
    vector_cluster, vector_trace = _run_terasort_engine("vectorized")
    scalar_path = tmp_path / "scalar.jsonl"
    vector_path = tmp_path / "vectorized.jsonl"
    scalar_trace.to_jsonl(str(scalar_path))
    vector_trace.to_jsonl(str(vector_path))
    assert scalar_path.read_bytes() == vector_path.read_bytes()
    # Both engines did the same logical work, counted identically.
    scalar_count = scalar_cluster.sim.telemetry.registry.value
    vector_count = vector_cluster.sim.telemetry.registry.value
    assert scalar_count("net.recomputes") == vector_count("net.recomputes")
    assert (scalar_count("net.waterfill_rounds")
            == vector_count("net.waterfill_rounds"))
    assert scalar_cluster.net.engine == "scalar"
    assert vector_cluster.net.engine == "vectorized"


@needs_numpy
def test_replay_link_bytes_agree_across_engines(monkeypatch):
    """Replaying one capture: same flow records, per-link totals to 1e-12.

    The vectorized engine sums a link's delivered bytes in a different
    order (one ``bincount`` per export), so its totals may differ from
    the scalar engine's in the last bits.  They must still be plain
    floats: numpy scalars would leak into the replay report's
    utilisation figures.
    """
    import repro.generation.replay as replay

    networks = {}

    def recording_backend(name, sim, topology, **cfg):
        networks[cfg["engine"]] = net = make_backend(name, sim, topology,
                                                     **cfg)
        return net

    monkeypatch.setattr(replay, "make_backend", recording_backend)
    _, trace = _run_terasort_engine("scalar")
    scalar = replay.replay_trace(trace, engine="scalar")
    vector = replay.replay_trace(trace, engine="vectorized")

    assert ([record.to_dict() for record in scalar.records]
            == [record.to_dict() for record in vector.records])
    scalar_links = {link: value for link, value
                    in networks["scalar"].link_bytes.items() if value}
    vector_links = networks["vectorized"].link_bytes
    assert scalar_links and set(vector_links) == set(scalar_links)
    for link, value in vector_links.items():
        assert type(value) is float
        assert value == pytest.approx(scalar_links[link], rel=1e-12)
    for name in ("peak_link_utilisation", "mean_link_utilisation"):
        assert type(getattr(vector, name)) is float
        assert getattr(vector, name) == pytest.approx(getattr(scalar, name),
                                                      rel=1e-12)
