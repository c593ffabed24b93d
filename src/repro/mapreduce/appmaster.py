"""The MapReduce ApplicationMaster: one MR round end-to-end.

The AM is the engine's centrepiece.  It implements the YARN
:class:`~repro.yarn.resourcemanager.Application` protocol (container
demand + grant acceptance) and drives every task through the phases
that generate traffic:

map task:    [launch] -> [split read: HDFS-read flow unless node-local]
             -> [compute] -> [local spill] -> [umbilical notify]
reduce task: [launch] -> [shuffle: one fetch flow per completed map,
             <= parallel_copies concurrent] -> [merge] -> [reduce]
             -> [output write: replication-pipeline flows] -> [notify]

plus the AM's own overheads: jar localisation reads per node, AM-RM
heartbeats, container-launch RPCs, and the job-history write at commit.

Grant policy: pending maps always take a granted container before any
reducer does (Hadoop's AM does the same), which rules out the classic
reducer-starvation deadlock.  Map→container binding prefers node-local
splits, then rack-local, mirroring delay scheduling's steady state.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.capture.records import TrafficComponent
from repro.cluster import ports
from repro.cluster.config import HadoopConfig
from repro.cluster.topology import Host
from repro.hdfs.blocks import Block
from repro.hdfs.client import DfsClient
from repro.hdfs.datanode import DataNode
from repro.jobs.base import JobProfile, JobSpec
from repro.mapreduce import constants
from repro.mapreduce import counters as ctr
from repro.mapreduce.counters import JobCounters
from repro.mapreduce.result import RoundResult
from repro.net.backend import FlowRequest, TransportBackend
from repro.obs.trace import NULL_SPAN
from repro.simkit.core import Interrupt, Signal, Simulator
from repro.simkit.resources import Store
from repro.yarn.containers import Container, Resources
from repro.yarn.resourcemanager import Application, ResourceManager

_PENDING, _RUNNING, _DONE = "pending", "running", "done"


class _MapTask:
    __slots__ = ("index", "block", "size", "preferred", "state", "start_time",
                 "partitions", "attempts", "speculated", "output_bytes")

    def __init__(self, index: int, block: Optional[Block], size: float,
                 preferred: Sequence[Host]):
        self.index = index
        self.block = block
        self.size = size
        self.preferred = list(preferred)
        self.state = _PENDING
        self.start_time = 0.0
        self.partitions: Optional[np.ndarray] = None
        self.attempts = 0
        self.speculated = False
        self.output_bytes = 0.0


class _ReduceTask:
    __slots__ = ("index", "store", "state", "host", "claimed", "fetched_bytes",
                 "delivered", "fetchers", "preferred")

    def __init__(self, index: int, store: Store):
        self.index = index
        self.store = store
        self.state = _PENDING
        self.host: Optional[Host] = None
        # Pinned target host under placement_mode="keyed"; None
        # accepts any grant (the "grant" mode, and keyed recovery
        # after the pinned host died).
        self.preferred: Optional[Host] = None
        self.claimed = 0
        self.fetched_bytes = 0.0
        # Every (map host, bytes) ever delivered — replayed into a fresh
        # store when the reducer is re-executed after a node failure.
        self.delivered: list = []
        self.fetchers: list = []


class MRAppMaster(Application):
    """Runs one MapReduce round as a YARN application."""

    def __init__(self, sim: Simulator, net: TransportBackend, dfs: DfsClient,
                 rm: ResourceManager, config: HadoopConfig, spec: JobSpec,
                 input_paths: List[str], output_path: str,
                 rng: np.random.Generator, round_index: int = 0,
                 client_host: Optional[Host] = None,
                 node_speed: Optional[Dict[Host, float]] = None,
                 parent_span=None):
        self.sim = sim
        self.net = net
        self.dfs = dfs
        self.rm = rm
        self.config = config
        self.spec = spec
        self.profile: JobProfile = spec.profile
        self.input_paths = list(input_paths)
        self.output_path = output_path
        self.rng = rng
        self.round_index = round_index
        self.client_host = client_host
        self._node_speed = node_speed or {}
        self._tracer = sim.telemetry.tracer
        self._parent_span = parent_span
        self._round_span = NULL_SPAN
        self._map_stage_span = NULL_SPAN
        self._reduce_stage_span = NULL_SPAN

        self.app_id = f"{spec.job_id}-r{round_index:02d}"
        self.queue = spec.queue
        self.container_unit = Resources(1, 1024)
        self.done: Signal = sim.signal(name=f"{self.app_id}.done")
        self.result = RoundResult(app_id=self.app_id, round_index=round_index,
                                  submit_time=sim.now)

        self._am_granted = False
        self._am_ready = False
        self._am_container: Optional[Container] = None
        self.am_host: Optional[Host] = None
        # Keyed placement pins the AM container itself: the AM grant
        # otherwise lands on whichever node heartbeats first after job
        # submission, and submission time rides on the jar-staging
        # flows — timing a transport backend only approximates.  Drawn
        # here (before any task draws) so the stream layout is fixed.
        self._am_target: Optional[Host] = None
        if config.placement_mode == "keyed":
            workers = dfs.namenode.datanodes
            self._am_target = workers[int(rng.integers(len(workers)))]
        self._running = False
        self._localized_nodes: set = set()

        self._maps: List[_MapTask] = []
        self._map_queue: List[_MapTask] = []
        self._reduces: List[_ReduceTask] = []
        self._reduce_queue: List[_ReduceTask] = []
        self._container_tasks: Dict[int, tuple] = {}
        self._am_process = None
        self._map_phase_start = 0.0
        self._recovered_outputs: Dict[int, Host] = {}
        self.counters = JobCounters()
        self._completed_maps = 0
        self._completed_reduces = 0
        self._partition_weights: Optional[np.ndarray] = None
        self.num_reduces = self._effective_reducers()

    # -- sizing ---------------------------------------------------------------

    def _effective_reducers(self) -> int:
        if self.profile.map_only:
            return 0
        if self.spec.num_reducers is not None:
            return self.spec.num_reducers
        scaled = round(self.config.num_reducers * self.profile.reducers_scale)
        return max(1, scaled)

    def _build_map_tasks(self) -> None:
        if self.profile.is_generator:
            per_map = self.profile.generated_bytes_per_map
            count = self.spec.num_maps or max(1, math.ceil(self.spec.input_bytes / per_map))
            share = self.spec.input_bytes / count
            self._maps = [_MapTask(i, block=None, size=share, preferred=[])
                          for i in range(count)]
        else:
            index = 0
            for path in self.input_paths:
                for block in self.dfs.namenode.blocks_of(path):
                    replicas = self.dfs.namenode.locate(block).replicas
                    self._maps.append(
                        _MapTask(index, block=block, size=block.size, preferred=replicas))
                    index += 1
            if not self._maps:
                raise ValueError(f"{self.app_id}: no input blocks under {self.input_paths}")
        self._map_queue = list(self._maps)
        self.result.num_maps = len(self._maps)
        self.result.input_bytes = sum(task.size for task in self._maps)
        # Output-size jitter models data skew — a property of the
        # split, not of the attempt that processes it.  Drawn per task
        # in index order at build time, map-output (and therefore
        # shuffle and store) sizes are invariant to attempt timing:
        # every transport backend, speculative re-attempt and fetch
        # recovery sees the same bytes.
        self._size_jitters = [self._jitter() for _ in self._maps]

    def _build_reduce_tasks(self) -> None:
        self._reduces = [
            _ReduceTask(i, Store(self.sim, name=f"{self.app_id}.shuffle[{i}]"))
            for i in range(self.num_reduces)
        ]
        self._reduce_queue = list(self._reduces)
        self.result.num_reduces = self.num_reduces
        if self.num_reduces:
            self._partition_weights = self.profile.partition_weights(
                self.num_reduces, self.rng)
        if self.config.placement_mode == "keyed" and self.num_reduces:
            # Pin each reducer to a uniformly drawn worker, in index
            # order at build time.  Reducers have no data locality, so
            # YARN's heartbeat-order placement is effectively random
            # anyway; drawing it up front keeps the shuffle's endpoints
            # a function of (job, seed) alone rather than of grant
            # timing — which transport backends only approximate.
            workers = self.dfs.namenode.datanodes
            for task in self._reduces:
                task.preferred = workers[int(self.rng.integers(len(workers)))]

    # -- Application protocol ----------------------------------------------------

    def pending_count(self) -> int:
        if not self._am_granted:
            return 1
        if not self._am_ready:
            return 0
        pending = len(self._map_queue)
        if self._reduces_open():
            pending += len(self._reduce_queue)
        return pending

    def on_container_granted(self, container: Container) -> bool:
        if not self._am_granted:
            if self._am_target is not None and container.host is not self._am_target:
                return False
            self._am_granted = True
            self._am_container = container
            self.am_host = container.host
            self.result.am_host = container.host.name
            self._am_process = self.sim.process(self._run_am(),
                                                name=f"am[{self.app_id}]")
            return True
        if not self._am_ready:
            return False
        task = self._pick_map(container.host)
        if task is None and self._map_queue:
            # Maps pending but declined for locality (delay scheduling):
            # refuse the container; reducers must not consume it either.
            return False
        if task is not None:
            task.state = _RUNNING
            task.start_time = self.sim.now
            task.attempts += 1
            self.counters.increment(ctr.TOTAL_LAUNCHED_MAPS)
            self._launch_rpc(container.host)
            process = self.sim.process(self._run_map(task, container),
                                       name=f"map[{self.app_id}/{task.index}]")
            self._container_tasks[container.container_id] = ("map", task, process)
            return True
        if self._reduces_open() and self._reduce_queue:
            reduce_task = self._pick_reduce(container.host)
            if reduce_task is None:
                return False
            reduce_task.state = _RUNNING
            reduce_task.host = container.host
            if self._reduce_stage_span is NULL_SPAN:
                self._reduce_stage_span = self._tracer.start(
                    "stage", f"{self.app_id}.reduce", self.sim.now,
                    parent=self._round_span, tasks=self.num_reduces)
            self.counters.increment(ctr.TOTAL_LAUNCHED_REDUCES)
            self._launch_rpc(container.host)
            process = self.sim.process(
                self._run_reduce(reduce_task, container),
                name=f"reduce[{self.app_id}/{reduce_task.index}]")
            self._container_tasks[container.container_id] = (
                "reduce", reduce_task, process)
            return True
        return False

    def on_container_lost(self, container: Container) -> None:
        """A node failure killed one of our containers (YARN expiry path).

        Running tasks are aborted and re-queued; a lost AM container
        fails the whole round (no AM restart is modelled).  Completed
        map outputs are treated as durable — re-running finished maps
        on fetch failure is out of scope and documented in DESIGN.md.
        """
        self.result.lost_containers += 1
        self._tracer.event("container-lost", self.sim.now,
                           parent=self._round_span,
                           host=container.host.name)
        if container is self._am_container:
            self._fail_round()
            return
        entry = self._container_tasks.pop(container.container_id, None)
        if entry is None:
            return
        kind, task, process = entry
        process.interrupt("node failure")
        self.counters.increment(
            ctr.NUM_KILLED_MAPS if kind == "map" else ctr.NUM_KILLED_REDUCES)
        if kind == "map":
            if task.state == _RUNNING:
                task.state = _PENDING
                self._map_queue.append(task)
        else:
            for fetcher in task.fetchers:
                fetcher.interrupt("node failure")
            task.fetchers = []
            task.store = Store(self.sim, name=f"{self.app_id}.shuffle[{task.index}]")
            for item in task.delivered:
                task.store.put(item)
            task.claimed = 0
            task.fetched_bytes = 0.0
            task.state = _PENDING
            task.host = None
            # The pinned host just failed — let the re-execution take
            # any grant rather than starve on a dead node.
            task.preferred = None
            self._reduce_queue.append(task)

    def _fail_round(self) -> None:
        if self.done.fired:
            return
        self._running = False
        self.result.failed = True
        self.result.finish_time = self.sim.now
        self.result.counters = self.counters.to_dict()
        if self._am_process is not None and self._am_process.alive:
            self._am_process.interrupt("am container lost")
        self.rm.unregister_application(self.app_id)
        self._tracer.end(self._round_span, self.sim.now, failed=True)
        self.done.fire(self.result)

    def _pick_map(self, host: Host) -> Optional[_MapTask]:
        """Bind a pending map to the offered host.

        With ``delay_scheduling_s`` set, a host holding no local split
        is *declined* during the first wait window (and rack-local-only
        hosts during the doubled window), trading container grants for
        locality exactly as delay scheduling does.  Returning ``None``
        while maps are pending makes ``on_container_granted`` decline
        the container outright (no reducer may take it either, which
        rules out the reducers-starve-maps deadlock).
        """
        if not self._map_queue:
            return None
        if not self.config.locality_aware:
            return self._map_queue.pop(0)
        node_local = next((t for t in self._map_queue if host in t.preferred), None)
        if node_local is not None:
            self._map_queue.remove(node_local)
            return node_local
        wait = self.config.delay_scheduling_s
        elapsed = self.sim.now - self._map_phase_start
        if wait > 0 and elapsed < wait:
            return None  # keep waiting for a node-local opportunity
        rack_local = next(
            (t for t in self._map_queue
             if any(replica.rack == host.rack for replica in t.preferred)), None)
        if rack_local is not None:
            self._map_queue.remove(rack_local)
            return rack_local
        if wait > 0 and elapsed < 2.0 * wait:
            return None  # second tier: wait for at least rack-local
        return self._map_queue.pop(0)

    def _pick_reduce(self, host: Host) -> Optional[_ReduceTask]:
        """Bind a pending reduce to the offered host.

        "grant" placement takes the queue head regardless of host;
        "keyed" only accepts the host a task was pinned to (declining
        otherwise), so reducers wait for their own node's heartbeat and
        land identically under every transport backend.  A pinned host
        that is saturated merely delays the grant — the pin, and hence
        the shuffle endpoints, never moves.
        """
        if not self._reduce_queue:
            return None
        for task in self._reduce_queue:
            if task.preferred is None or task.preferred is host:
                self._reduce_queue.remove(task)
                return task
        return None

    def _reduces_open(self) -> bool:
        if not self.num_reduces:
            return False
        if self.config.slowstart <= 0:
            return True
        threshold = max(1, math.ceil(self.config.slowstart * len(self._maps)))
        return self._completed_maps >= threshold

    # -- AM lifecycle ---------------------------------------------------------------

    def _run_am(self):
        try:
            self._round_span = self._tracer.start(
                "round", self.app_id, self.sim.now, parent=self._parent_span,
                am_host=self.am_host.name)
            yield from self._localize(self.am_host)
            yield self.sim.timeout(constants.AM_STARTUP_S)
            self._register_with_rm()
            self._build_map_tasks()
            self._build_reduce_tasks()
            self.result.am_start_time = self.sim.now
            self._map_phase_start = self.sim.now
            self._map_stage_span = self._tracer.start(
                "stage", f"{self.app_id}.map", self.sim.now,
                parent=self._round_span, tasks=len(self._maps))
            self._am_ready = True
            self._running = True
            self.sim.process(self._heartbeat_loop(), name=f"am-hb[{self.app_id}]")
            yield self._all_done_signal()
            yield from self._commit()
        except Interrupt:
            return  # AM container lost; _fail_round already reported it

    def _all_done_signal(self) -> Signal:
        self._done_signal = self.sim.signal(name=f"{self.app_id}.tasks-done")
        self._check_all_done()
        return self._done_signal

    def _check_all_done(self) -> None:
        if not self._am_ready:
            return
        if (self._completed_maps >= len(self._maps)
                and self._completed_reduces >= self.num_reduces
                and not self._done_signal.fired):
            self._done_signal.fire(None)

    def _commit(self):
        history_writer = self.am_host
        yield from self.dfs.write_file(
            f"/history/{self.app_id}.jhist", constants.HISTORY_BYTES,
            history_writer, job_id=self.spec.job_id,
            parent_span=self._round_span)
        self._control_flow(self.am_host, self.rm.host, constants.AM_HEARTBEAT_BYTES,
                           "am-unregister", ports.RM_SCHEDULER)
        self.counters.increment(ctr.HDFS_BYTES_WRITTEN, constants.HISTORY_BYTES)
        self._running = False
        self.rm.release_container(self._am_container)
        self.rm.unregister_application(self.app_id)
        self.result.finish_time = self.sim.now
        self.result.counters = self.counters.to_dict()
        self._tracer.end(self._round_span, self.sim.now,
                         maps=len(self._maps), reduces=self.num_reduces)
        self.done.fire(self.result)

    def _register_with_rm(self) -> None:
        self._control_flow(self.am_host, self.rm.host, constants.AM_HEARTBEAT_BYTES,
                           "am-register", ports.RM_SCHEDULER)

    def _heartbeat_loop(self):
        while self._running:
            self._control_flow(self.am_host, self.rm.host,
                               constants.AM_HEARTBEAT_BYTES,
                               "am-heartbeat", ports.RM_SCHEDULER)
            if self.config.speculative:
                # Re-examine stragglers every beat: the slowest map is
                # often the *last* runner, after which no completion
                # event would ever trigger the check.
                self._maybe_speculate()
            yield self.sim.timeout(constants.AM_HEARTBEAT_S)

    # -- traffic helpers -----------------------------------------------------------

    def _control_flow(self, src: Host, dst: Host, size: int, service: str,
                      dst_port: int) -> None:
        if src == dst:
            return
        self.net.start_flow(src, dst, size, metadata={
            "component": TrafficComponent.CONTROL.value,
            "service": service,
            "job_id": self.spec.job_id,
            "src_port": ports.ephemeral_port(f"{service}-{self.app_id}-{src.name}"),
            "dst_port": dst_port,
        })

    def _launch_rpc(self, node: Host) -> None:
        self._control_flow(self.am_host, node, constants.LAUNCH_RPC_BYTES,
                           "container-launch", ports.NM_IPC)

    def _localize(self, node: Host):
        """First container on a node pulls the job jar from HDFS."""
        if node in self._localized_nodes:
            return
        self._localized_nodes.add(node)
        jar_path = f"/staging/{self.spec.job_id}/job.jar"
        if self.dfs.namenode.exists(jar_path):
            yield from self.dfs.read_file(jar_path, node, job_id=self.spec.job_id)
            self.counters.increment(ctr.HDFS_BYTES_READ, constants.JOB_JAR_BYTES)

    # -- map tasks -------------------------------------------------------------------

    def _run_map(self, task: _MapTask, container: Container):
        host = container.host
        span = self._tracer.start(
            "task", f"map[{task.index}]", self.sim.now,
            parent=self._map_stage_span, host=host.name,
            attempt=task.attempts)
        try:
            yield from self._localize(host)
            yield self.sim.timeout(constants.TASK_LAUNCH_S)
            datanode = self.dfs.datanodes.get(host)

            if self.profile.is_generator:
                yield from self._map_generate(task, host, span)
            else:
                yield from self._map_read_and_compute(task, host, datanode, span)
        except Interrupt:
            self._tracer.end(span, self.sim.now, interrupted=True)
            return  # killed by node failure; on_container_lost re-queued us

        self._control_flow(host, self.am_host, constants.UMBILICAL_BYTES,
                           "task-umbilical", ports.ephemeral_port(f"am-{self.app_id}"))
        self._container_tasks.pop(container.container_id, None)
        self._tracer.end(span, self.sim.now, output_bytes=task.output_bytes)
        self._on_map_complete(task, host, container)

    def _map_generate(self, task: _MapTask, host: Host, span=None):
        compute = self._compute_time(task.size, self.profile.map_cpu_rate, host)
        yield self.sim.timeout(compute)
        output = task.size * self.profile.map_selectivity
        task.output_bytes = output
        if output >= 1:
            yield from self.dfs.write_file(
                f"{self.output_path}/part-m-{task.index:05d}", int(output), host,
                job_id=self.spec.job_id,
                replication=self.profile.output_replication or self.config.replication,
                parent_span=span)
            self.result.output_bytes += int(output)
            self.counters.increment(ctr.HDFS_BYTES_WRITTEN, int(output))

    def _map_read_and_compute(self, task: _MapTask, host: Host,
                              datanode: Optional[DataNode], span=None):
        if task.block is not None and task.block.size > 0:
            served = yield from self.dfs.read_block(task.block, host,
                                                    job_id=self.spec.job_id,
                                                    parent_span=span)
            self._count_locality(served, host, task)
            self.counters.increment(ctr.HDFS_BYTES_READ, task.block.size)
        compute = self._compute_time(task.size, self.profile.map_cpu_rate, host)
        yield self.sim.timeout(compute)
        output = (task.size * self.profile.map_selectivity
                  * self._size_jitters[task.index])
        task.output_bytes = output
        if self.profile.map_only or self.num_reduces == 0:
            # Zero-reducer jobs write map output straight to HDFS.
            if output >= 1:
                yield from self.dfs.write_file(
                    f"{self.output_path}/part-m-{task.index:05d}", int(output), host,
                    job_id=self.spec.job_id,
                    replication=self.profile.output_replication or self.config.replication,
                    parent_span=span)
                self.result.output_bytes += int(output)
                self.counters.increment(ctr.HDFS_BYTES_WRITTEN, int(output))
        else:
            # Map-output compression shrinks what is spilled and shuffled
            # (the "materialized" bytes); logical output is unchanged.
            materialized = output
            if self.config.compress_map_output:
                materialized = output * self.config.compression_ratio
            if datanode is not None and materialized > 0:
                yield self.sim.timeout(materialized / datanode.disk_write_rate)
                self.counters.increment(ctr.FILE_BYTES_WRITTEN, materialized)
            task.partitions = materialized * self._partition_weights

    def _count_locality(self, served: Host, reader: Host, task: _MapTask) -> None:
        if task.state == _DONE:
            return  # speculative loser; original already counted
        if served == reader:
            self.result.node_local_reads += 1
            self.counters.increment(ctr.DATA_LOCAL_MAPS)
        elif served.rack == reader.rack:
            self.result.rack_local_reads += 1
            self.counters.increment(ctr.RACK_LOCAL_MAPS)
        else:
            self.result.remote_reads += 1
            self.counters.increment(ctr.OTHER_LOCAL_MAPS)

    def _on_map_complete(self, task: _MapTask, host: Host,
                         container: Container) -> None:
        first_completion = task.state != _DONE
        if first_completion:
            task.state = _DONE
            self._completed_maps += 1
            self.counters.increment(ctr.MAP_INPUT_BYTES, task.size)
            self.counters.increment(ctr.MAP_OUTPUT_BYTES, task.output_bytes)
            self.result.map_durations.append(self.sim.now - task.start_time)
            if task.partitions is not None:
                output = float(task.partitions.sum())
                self.result.map_output_bytes += output
                for reduce_task in self._reduces:
                    item = (host, float(task.partitions[reduce_task.index]), task)
                    reduce_task.store.put(item)
                    reduce_task.delivered.append(item)
            if self._completed_maps == len(self._maps):
                self.result.maps_done_time = self.sim.now
                self._tracer.end(self._map_stage_span, self.sim.now)
            self._maybe_speculate()
        self.rm.release_container(container)
        self._check_all_done()

    def _maybe_speculate(self) -> None:
        """Duplicate the slowest straggler near the end of the map phase."""
        if not self.config.speculative or self._map_queue:
            return
        if self._completed_maps < 0.75 * len(self._maps):
            return
        durations = self.result.map_durations
        if not durations:
            return
        mean = sum(durations) / len(durations)
        for task in self._maps:
            if (task.state == _RUNNING and not task.speculated
                    and self.sim.now - task.start_time > 2.0 * mean):
                task.speculated = True
                self.result.speculative_attempts += 1
                self._tracer.event("speculate", self.sim.now,
                                   parent=self._map_stage_span,
                                   task=task.index)
                self._map_queue.append(task)

    # -- reduce tasks -----------------------------------------------------------------

    def _run_reduce(self, task: _ReduceTask, container: Container):
        host = container.host
        span = self._tracer.start(
            "task", f"reduce[{task.index}]", self.sim.now,
            parent=self._reduce_stage_span, host=host.name)
        try:
            yield from self._localize(host)
            yield self.sim.timeout(constants.TASK_LAUNCH_S)
            started = self.sim.now

            copies = min(self.config.shuffle_parallel_copies, len(self._maps))
            burst = self._claim_shuffle_wave(task, host, span, copies)
            task.fetchers = [
                self.sim.process(
                    self._fetcher(task, host, span,
                                  first=burst[i] if i < len(burst) else None),
                    name=f"fetch[{self.app_id}/{task.index}/{i}]")
                for i in range(copies)
            ]
            yield self.sim.all_of(task.fetchers)
            task.fetchers = []

            total = task.fetched_bytes
            logical = total
            if self.config.compress_map_output:
                logical = total / self.config.compression_ratio
            if total > 0:
                yield self.sim.timeout(logical / self.profile.merge_rate)
                yield self.sim.timeout(self._compute_time(
                    logical, self.profile.reduce_cpu_rate, host))
            # A re-executed reducer overwrites its predecessor's output
            # (the failed attempt never committed).
            output_file = f"{self.output_path}/part-r-{task.index:05d}"
            if self.dfs.namenode.exists(output_file):
                self.dfs.namenode.delete_file(output_file)
            output = logical * self.profile.reduce_selectivity
            if output >= 1:
                yield from self.dfs.write_file(
                    output_file, int(output), host,
                    job_id=self.spec.job_id,
                    replication=self.profile.output_replication or self.config.replication,
                    parent_span=span)
                self.result.output_bytes += int(output)
                self.counters.increment(ctr.HDFS_BYTES_WRITTEN, int(output))
        except Interrupt:
            self._tracer.end(span, self.sim.now, interrupted=True)
            return  # killed by node failure; on_container_lost re-queued us
        self._control_flow(host, self.am_host, constants.UMBILICAL_BYTES,
                           "task-umbilical", ports.ephemeral_port(f"am-{self.app_id}"))
        self._container_tasks.pop(container.container_id, None)
        task.state = _DONE
        self.counters.increment(ctr.REDUCE_SHUFFLE_BYTES, total)
        self.counters.increment(ctr.REDUCE_INPUT_BYTES, total)
        self.counters.increment(ctr.REDUCE_OUTPUT_BYTES, output)
        self._completed_reduces += 1
        self.result.reduce_durations.append(self.sim.now - started)
        self._tracer.end(span, self.sim.now, shuffle_bytes=total)
        if self._completed_reduces == self.num_reduces:
            self._tracer.end(self._reduce_stage_span, self.sim.now)
        self.rm.release_container(container)
        self._check_all_done()

    def _claim_shuffle_wave(self, task: _ReduceTask, host: Host, span,
                            copies: int):
        """Claim the map outputs already queued and admit their fetch
        flows as one batched wave — the shuffle's slow-start burst.

        A reducer launching after several maps committed used to pay
        one admission (path resolution + rate recompute request) per
        parallel-copy slot; here the whole opening wave goes through
        ``start_flows`` in a single call.  The wave stops early at a
        dead-host item (recovery must yield, so the fetcher loop owns
        it) and at the claim budget; zero-byte outputs are claimed but
        emit no flow, exactly as the fetcher loop would.  Returns the
        admitted ``(flow, span)`` pairs, one per fetcher slot.
        """
        store = task.store
        requests: list = []
        while (len(requests) < copies and task.claimed < len(self._maps)
               and len(store)):
            src_host, size, _map_task = store.peek()
            if size >= 1 and self.dfs.namenode.is_dead(src_host):
                break
            store.get()  # items are queued, so this claim is synchronous
            task.claimed += 1
            task.fetched_bytes += size
            self.result.shuffle_bytes += size
            if size < 1:
                continue
            requests.append(self._fetch_request(task, host, src_host, size,
                                                span))
        flows = self.net.start_flows(requests) if requests else []
        return [(flow, request.parent_span)
                for flow, request in zip(flows, requests)]

    def _fetch_request(self, task: _ReduceTask, host: Host, src_host: Host,
                       size: float, span) -> FlowRequest:
        """One shuffle fetch of ``size`` bytes from ``src_host`` to the
        reducer on ``host``; its ``fetch`` span is the request's
        ``parent_span``."""
        fetch_span = NULL_SPAN
        if self._tracer.enabled:
            fetch_span = self._tracer.start(
                "fetch", f"fetch[{task.index}<-{src_host.name}]",
                self.sim.now, parent=span, src=src_host.name, size=size)
        datanode = self.dfs.datanodes.get(src_host)
        return FlowRequest(
            src_host, host, size,
            max_rate=datanode.disk_read_rate if datanode else None,
            metadata={
                "component": TrafficComponent.SHUFFLE.value,
                "service": "shuffle-fetch",
                "job_id": self.spec.job_id,
                "src_port": ports.SHUFFLE_HANDLER,
                "dst_port": ports.ephemeral_port(
                    f"shuffle-{self.app_id}-{task.index}-{src_host.name}"),
            }, parent_span=fetch_span)

    def _fetcher(self, task: _ReduceTask, host: Host, span=None, first=None):
        """One parallel-copy slot: claims map outputs and fetches them.

        ``first`` is this slot's share of the batched slow-start wave:
        an already-admitted ``(flow, span)`` pair to await before
        falling back to the one-at-a-time claim loop.
        """
        try:
            if first is not None:
                flow, fetch_span = first
                yield flow.done
                self._tracer.end(fetch_span, self.sim.now)
            yield from self._fetch_loop(task, host, span)
        except Interrupt:
            return  # reducer re-executed elsewhere; a fresh store replays

    def _fetch_loop(self, task: _ReduceTask, host: Host, span=None):
        while task.claimed < len(self._maps):
            task.claimed += 1
            src_host, size, map_task = yield task.store.get()
            if size >= 1 and self.dfs.namenode.is_dead(src_host):
                # Fetch failure: the serving node died after the map
                # committed.  Hadoop re-runs the map attempt; we model
                # the recovery — re-read the split from a live replica
                # on a fresh node, recompute, then fetch from there.
                src_host = yield from self._recover_map_output(map_task, src_host)
                if src_host is None:
                    continue  # split unrecoverable: data lost
            task.fetched_bytes += size
            self.result.shuffle_bytes += size
            if size < 1:
                continue
            request = self._fetch_request(task, host, src_host, size, span)
            flow, = self.net.start_flows([request])
            yield flow.done
            self._tracer.end(request.parent_span, self.sim.now)

    def _recover_map_output(self, map_task: Optional[_MapTask],
                            dead_host: Host):
        """Re-create a dead node's map output on a live node.

        Memoised per map task — the first failing fetch pays for the
        recovery and later fetches reuse it (concurrent misses may race
        and duplicate the work, bounded by the reducer count, exactly
        like duplicate recovery attempts on a real cluster).  Returns
        the recovery host, or ``None`` when the input split is gone too.
        """
        if map_task is None:
            return None
        cached = self._recovered_outputs.get(map_task.index)
        if cached is not None:
            return cached
        live = self.dfs.namenode.live_datanodes
        if not live:
            return None
        recovery_host = live[int(self.rng.integers(len(live)))]
        if map_task.block is not None and map_task.block.size > 0:
            from repro.hdfs.namenode import BlockLostError

            try:
                yield from self.dfs.read_block(map_task.block, recovery_host,
                                               job_id=self.spec.job_id)
            except BlockLostError:
                return None
        yield self.sim.timeout(self._compute_time(
            map_task.size, self.profile.map_cpu_rate, recovery_host))
        self.result.fetch_recoveries += 1
        self._recovered_outputs[map_task.index] = recovery_host
        self._tracer.event("fetch-recovery", self.sim.now,
                           parent=self._round_span, task=map_task.index,
                           host=recovery_host.name)
        return recovery_host

    # -- misc --------------------------------------------------------------------------

    def _compute_time(self, data_bytes: float, rate: float, host: Host) -> float:
        """A compute phase's duration on ``host``.

        Combines per-task lognormal jitter, the host's speed factor
        (heterogeneous clusters) and transient straggler events — the
        tail speculative execution is designed to cut.
        """
        duration = data_bytes / rate * self._jitter()
        speed = self._node_speed.get(host, 1.0)
        if speed > 0:
            duration /= speed
        if (self.config.straggler_prob > 0
                and float(self.rng.random()) < self.config.straggler_prob):
            duration *= self.config.straggler_slowdown
        return duration

    def _jitter(self) -> float:
        sigma = self.profile.map_jitter_sigma
        if sigma <= 0:
            return 1.0
        # Mean-1 lognormal so jitter perturbs but does not bias volumes.
        return float(self.rng.lognormal(mean=-0.5 * sigma * sigma, sigma=sigma))
