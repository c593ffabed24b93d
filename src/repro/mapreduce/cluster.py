"""HadoopCluster: the fully assembled simulated deployment.

Wires together one master host (NameNode + ResourceManager) and N
worker hosts (DataNode + NodeManager each) over a flow-level network,
with a capture collector attached — the simulated counterpart of the
paper's instrumented testbed.

Typical use::

    cluster = HadoopCluster(ClusterSpec(num_nodes=16), HadoopConfig(), seed=1)
    results, traces = cluster.run([make_job("terasort", input_gb=2.0)])
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.capture.collector import FlowCollector
from repro.capture.records import CaptureMeta, JobTrace
from repro.cluster.config import ClusterSpec, HadoopConfig
from repro.cluster.topology import Host, Topology, build_topology
from repro.hdfs.client import DfsClient
from repro.hdfs.datanode import DataNode
from repro.hdfs.namenode import NameNode
from repro.hdfs.placement import PlacementPolicy
from repro.jobs.base import JobIdStream, JobSpec
from repro.jobs.plan import WorkloadPlan
from repro.mapreduce import constants
from repro.mapreduce.driver import JobDriver, PlanExecutor
from repro.mapreduce.result import JobResult, PlanResult
from repro.net.backend import make_backend
from repro.obs.probes import ClusterProbes
from repro.obs.telemetry import Telemetry
from repro.simkit import RngRegistry, Simulator
from repro.yarn.containers import Resources
from repro.yarn.nodemanager import NodeManager
from repro.yarn.resourcemanager import ResourceManager
from repro.yarn.schedulers import make_scheduler


class HadoopCluster:
    """A simulated Hadoop deployment ready to run jobs."""

    def __init__(self, spec: Optional[ClusterSpec] = None,
                 config: Optional[HadoopConfig] = None, seed: int = 0,
                 queue_capacities: Optional[Dict[str, float]] = None,
                 placement_policy: Optional[PlacementPolicy] = None,
                 telemetry: Optional[Telemetry] = None):
        self.spec = spec or ClusterSpec()
        self.config = config or HadoopConfig()
        self.seed = seed
        self.telemetry = telemetry if telemetry is not None else Telemetry.disabled()
        self.sim = Simulator(telemetry=self.telemetry)
        self.rng = RngRegistry(seed)

        # The master is the *last* host so the N workers keep balanced
        # racks (h000..h00N-1); with N a rack multiple the master sits
        # alone behind its own ToR, like a dedicated master node.
        self.topology: Topology = build_topology(
            self.spec.topology,
            num_hosts=self.spec.num_nodes + 1,
            hosts_per_rack=self.spec.hosts_per_rack,
            host_gbps=self.spec.host_gbps,
            oversubscription=self.spec.oversubscription)
        self.master: Host = self.topology.hosts[-1]
        self.workers: List[Host] = self.topology.hosts[:-1]

        self.net = make_backend(self.spec.backend, self.sim, self.topology,
                                hop_latency=self.spec.hop_latency_s,
                                engine=self.spec.engine)
        self.collector = FlowCollector(self.net)

        self.namenode = NameNode(self.master, self.workers,
                                 policy=placement_policy,
                                 rng=self.rng.stream("placement"),
                                 telemetry=self.telemetry,
                                 seed=seed)
        self.datanodes: Dict[Host, DataNode] = {
            host: DataNode(self.sim, self.net, host, self.master,
                           self.spec.disk_read_rate, self.spec.disk_write_rate,
                           heartbeat_interval=self.config.dn_heartbeat_s,
                           heartbeat_bytes=self.config.heartbeat_bytes)
            for host in self.workers
        }
        self.dfs = DfsClient(self.sim, self.net, self.namenode,
                             self.datanodes, self.config)

        scheduler = make_scheduler(self.config.scheduler, queue_capacities)
        self.rm = ResourceManager(self.sim, self.net, self.master, scheduler)
        per_node = Resources(self.spec.containers_per_node,
                             1024 * self.spec.containers_per_node)
        interval = self.config.nm_heartbeat_s
        self.nodemanagers: List[NodeManager] = [
            NodeManager(self.sim, self.net, host, self.rm, per_node,
                        heartbeat_interval=interval,
                        phase=interval * index / max(len(self.workers), 1),
                        heartbeat_bytes=self.config.heartbeat_bytes)
            for index, host in enumerate(self.workers)
        ]
        # Heterogeneity: mean-1 lognormal per-node compute speed factors.
        sigma = self.spec.node_speed_sigma
        if sigma > 0:
            speed_rng = self.rng.stream("node-speed")
            self.node_speed: Dict[Host, float] = {
                host: float(speed_rng.lognormal(-0.5 * sigma * sigma, sigma))
                for host in self.workers
            }
        else:
            self.node_speed = {host: 1.0 for host in self.workers}
        self._drivers: List[JobDriver] = []
        self._job_ids = JobIdStream()
        self._started = False
        self.probes: Optional[ClusterProbes] = None

    # -- daemon lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Start NodeManager/DataNode heartbeat loops (and probes)."""
        if self._started:
            return
        self._started = True
        for node in self.nodemanagers:
            node.start_heartbeats()
        for datanode in self.datanodes.values():
            datanode.start_heartbeats()
        if self.telemetry.enabled and self.telemetry.probe_interval > 0:
            if self.probes is None:
                self.probes = ClusterProbes(self, self.telemetry.probe_interval,
                                            log=self.telemetry.probes)
            self.probes.start()

    def stop(self) -> None:
        """Stop heartbeats (and probes) so the event queue can drain."""
        self._started = False
        for node in self.nodemanagers:
            node.stop_heartbeats()
        for datanode in self.datanodes.values():
            datanode.stop_heartbeats()
        if self.probes is not None:
            self.probes.stop()

    # -- job execution ----------------------------------------------------------------

    def preload_input(self, spec: JobSpec) -> None:
        """Install a job's input data without generating traffic."""
        if spec.profile.is_generator:
            return
        if not self.namenode.exists(spec.input_path):
            self.dfs.preload_file(spec.input_path, int(spec.input_bytes))

    def stage_job_resources(self, spec: JobSpec, client: Host):
        """Generator: upload job.jar/conf to the staging area (with traffic)."""
        jar_path = f"/staging/{spec.job_id}/job.jar"
        if self.namenode.exists(jar_path):
            return
        replication = min(constants.JAR_STAGING_REPLICATION, len(self.workers))
        yield from self.dfs.write_file(jar_path, constants.JOB_JAR_BYTES, client,
                                       job_id=spec.job_id, replication=replication)

    def submit_job(self, spec: JobSpec, client_host: Optional[Host] = None) -> JobDriver:
        """Preload input and start a driver for ``spec``.  Returns the driver.

        A spec without an id is named here, from this cluster's
        :class:`~repro.jobs.base.JobIdStream`.
        """
        if not spec.job_id:
            spec.set_id(self._job_ids.allocate(spec.kind))
        self.preload_input(spec)
        driver = JobDriver(self, spec, client_host=client_host)
        self._drivers.append(driver)
        return driver

    def submit_plan(self, plan: WorkloadPlan,
                    client_host: Optional[Host] = None,
                    plan_id: Optional[str] = None) -> PlanExecutor:
        """Start an executor for ``plan``.  Returns the executor."""
        executor = PlanExecutor(self, plan, client_host=client_host,
                                plan_id=plan_id)
        self._drivers.extend(executor.drivers.values())
        return executor

    def run_plan(self, plan: WorkloadPlan, plan_id: Optional[str] = None,
                 ) -> Tuple[PlanResult, JobTrace]:
        """Run one workload plan to completion; result + combined trace.

        Mirrors :meth:`run` for a single plan: daemons start, a
        controller process submits the plan at t=0, everything stops
        when the last stage finishes.  The returned trace covers all
        stages (see :meth:`trace_for_plan`).
        """
        self.start()
        holder: List[PlanExecutor] = []

        def controller():
            executor = self.submit_plan(plan, plan_id=plan_id)
            holder.append(executor)
            yield executor.done
            self.stop()

        self.sim.process(controller(), name="cluster-controller")
        self.sim.run()
        executor = holder[0]
        return executor.result, self.trace_for_plan(executor)

    def run(self, specs: Sequence[JobSpec],
            arrival_times: Optional[Sequence[float]] = None,
            ) -> Tuple[List[JobResult], List[JobTrace]]:
        """Run a batch of jobs to completion and return results + traces.

        ``arrival_times`` staggers submissions (defaults to all at t=0,
        the paper's one-job-at-a-time capture setup when one spec is
        passed).  Stops cluster daemons once every job finishes and
        drains the event queue.
        """
        if arrival_times is None:
            arrival_times = [0.0] * len(specs)
        if len(arrival_times) != len(specs):
            raise ValueError("arrival_times must match specs")
        self.start()
        drivers: List[JobDriver] = []

        def controller():
            clock = 0.0
            pending = sorted(zip(arrival_times, range(len(specs))))
            for when, index in pending:
                if when > clock:
                    yield self.sim.timeout(when - clock)
                    clock = when
                drivers.append(self.submit_job(specs[index]))
            yield self.sim.all_of([driver.done for driver in drivers])
            self.stop()

        self.sim.process(controller(), name="cluster-controller")
        self.sim.run()
        results = [driver.result for driver in drivers]
        return results, [self.trace_for(driver) for driver in drivers]

    # -- capture extraction ---------------------------------------------------------------

    def trace_for(self, driver: JobDriver) -> JobTrace:
        """Cut the collector's capture into one job's trace."""
        result = driver.result
        meta = CaptureMeta(
            job_id=result.job_id,
            job_kind=result.kind,
            input_bytes=result.input_bytes,
            cluster=self.spec.to_dict(),
            hadoop=self.config.to_dict(),
            seed=self.seed,
            submit_time=result.submit_time,
            finish_time=result.finish_time,
            num_maps=result.num_maps,
            num_reduces=result.num_reduces,
            extra={"rounds": len(result.rounds),
                   "completion_time": result.completion_time},
        )
        return self.collector.trace_for_job(meta)

    def trace_for_plan(self, executor: PlanExecutor) -> JobTrace:
        """Cut the collector's capture into one plan's combined trace.

        One trace spans every stage, with the per-stage breakdown (job
        ids, windows, volumes, dependency edges) recorded under
        ``meta.extra['plan']`` so the analysis layer can attribute flows
        back to stages.
        """
        result = executor.result
        meta = CaptureMeta(
            job_id=result.plan_id,
            job_kind=result.kind,
            input_bytes=result.external_input_bytes,
            cluster=self.spec.to_dict(),
            hadoop=self.config.to_dict(),
            seed=self.seed,
            submit_time=result.submit_time,
            finish_time=result.finish_time,
            num_maps=result.num_maps,
            num_reduces=result.num_reduces,
            extra={"rounds": len(result.rounds),
                   "completion_time": result.completion_time,
                   "plan": executor.plan_meta()},
        )
        flows = self.collector.flows_for_jobs(
            executor.stage_job_ids(), meta.submit_time, meta.finish_time)
        return JobTrace(meta=meta, flows=flows)
