"""The ResourceManager: application registry and heartbeat allocation."""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.capture.records import TrafficComponent
from repro.cluster import ports
from repro.cluster.topology import Host
from repro.net.backend import TransportBackend
from repro.simkit.core import Simulator
from repro.yarn.containers import Container, Resources
from repro.yarn.schedulers.base import AppUsage, Scheduler

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.yarn.nodemanager import NodeManager


class Application:
    """Interface the RM schedules against (implemented by the MR driver)."""

    app_id: str = ""
    queue: str = "default"
    submit_order: int = 0
    container_unit: Resources = Resources()

    def pending_count(self) -> int:
        """Number of containers the application currently wants."""
        raise NotImplementedError

    def on_container_granted(self, container: Container) -> bool:
        """Accept (True) or decline (False) a granted container."""
        raise NotImplementedError

    def on_container_lost(self, container: Container) -> None:
        """Notification that a node failure killed a held container."""
        # Default: applications that don't handle failures ignore it.


class ResourceManager:
    """Allocates containers to applications at NodeManager heartbeats.

    Allocation is *heartbeat-driven* as in YARN: the RM only hands out
    containers on a node when that node heartbeats, so a job's ramp-up
    is paced by ``nm_heartbeat_s`` — visibly staircasing the map-task
    start times (and hence the HDFS-read flow arrival process).
    """

    def __init__(self, sim: Simulator, net: TransportBackend, host: Host,
                 scheduler: Scheduler):
        self.sim = sim
        self.net = net
        self.host = host
        self.scheduler = scheduler
        self.nodes: List["NodeManager"] = []
        self.apps: Dict[str, Application] = {}
        self.usage: Dict[str, Resources] = {}
        self._submit_counter = itertools.count()
        self._container_node: Dict[int, "NodeManager"] = {}
        self.telemetry = sim.telemetry
        registry = self.telemetry.registry
        self._c_heartbeats = registry.counter("yarn.node_heartbeats")
        self._c_granted = registry.counter("yarn.containers_granted")
        self._c_declined = registry.counter("yarn.containers_declined")
        self._c_released = registry.counter("yarn.containers_released")
        self._c_lost = registry.counter("yarn.containers_lost")
        self._c_apps = registry.counter("yarn.apps_submitted")
        self._c_selections = registry.counter(
            "yarn.scheduler_selections", policy=scheduler.name)
        registry.gauge("yarn.registered_nodes", fn=lambda: len(self.nodes))
        registry.gauge("yarn.active_apps", fn=lambda: len(self.apps))

    # -- registration ----------------------------------------------------------

    def register_node(self, node: "NodeManager") -> None:
        self.nodes.append(node)

    @property
    def cluster_total(self) -> Resources:
        # Sum the fields directly: folding ``Resources.__add__`` builds
        # (and validates) one frozen dataclass per node, per heartbeat.
        vcores = memory_mb = 0
        for node in self.nodes:
            capacity = node.capacity
            vcores += capacity.vcores
            memory_mb += capacity.memory_mb
        return Resources(vcores, memory_mb)

    def submit_application(self, app: Application,
                           client_host: Optional[Host] = None) -> None:
        """Register an application (optionally with a submission RPC flow)."""
        if app.app_id in self.apps:
            raise ValueError(f"application {app.app_id!r} already submitted")
        app.submit_order = next(self._submit_counter)
        self.apps[app.app_id] = app
        self.usage[app.app_id] = Resources.zero()
        self._c_apps.value += 1
        if client_host is not None and client_host != self.host:
            self.net.start_flow(
                client_host, self.host, 4096,
                metadata={
                    "component": TrafficComponent.CONTROL.value,
                    "service": "job-submission",
                    "job_id": app.app_id,
                    "src_port": ports.ephemeral_port(f"submit-{app.app_id}"),
                    "dst_port": ports.RM_CLIENT,
                })

    def unregister_application(self, app_id: str) -> None:
        self.apps.pop(app_id, None)
        self.usage.pop(app_id, None)

    # -- allocation --------------------------------------------------------------

    def node_heartbeat(self, node: "NodeManager") -> List[Container]:
        """Allocate free capacity on a heartbeating node.  Returns grants."""
        granted: List[Container] = []
        declined: set = set()
        total = self.cluster_total
        self._c_heartbeats.value += 1
        while True:
            candidates = [
                self._usage_view(app) for app in self.apps.values()
                if app.app_id not in declined
                and app.pending_count() > 0
                and app.container_unit.fits_in(node.free)
            ]
            if not candidates:
                break
            chosen = self.scheduler.select_app(candidates, total)
            if chosen is None:
                break
            self._c_selections.value += 1
            app = self.apps[chosen.app_id]
            container = Container(host=node.host, app_id=app.app_id,
                                  resources=app.container_unit)
            node.allocate(container)
            self._container_node[container.container_id] = node
            self.usage[app.app_id] = self.usage[app.app_id] + container.resources
            if app.on_container_granted(container):
                self._c_granted.value += 1
                granted.append(container)
            else:
                self._c_declined.value += 1
                node.deallocate(container)
                del self._container_node[container.container_id]
                self.usage[app.app_id] = self.usage[app.app_id] - container.resources
                declined.add(app.app_id)
        return granted

    def fail_node(self, node: "NodeManager") -> List[Container]:
        """Handle a NodeManager failure: expire its containers.

        The node is removed from scheduling, its heartbeats stop, and
        each application holding a container on it is notified via
        :meth:`Application.on_container_lost` — mirroring the RM's
        container-expiry path after NM liveness timeout.  Returns the
        lost containers.
        """
        if node in self.nodes:
            self.nodes.remove(node)
        node.stop_heartbeats()
        lost = list(node.running)
        for container in lost:
            node.deallocate(container)
            self._container_node.pop(container.container_id, None)
            if container.app_id in self.usage:
                self.usage[container.app_id] = (
                    self.usage[container.app_id] - container.resources)
            app = self.apps.get(container.app_id)
            if app is not None:
                app.on_container_lost(container)
            self._c_lost.value += 1
        return lost

    def release_container(self, container: Container) -> None:
        """Return a finished container's resources to its node."""
        node = self._container_node.pop(container.container_id, None)
        if node is None:
            raise KeyError(f"unknown container {container!r}")
        node.deallocate(container)
        self._c_released.value += 1
        if container.app_id in self.usage:
            self.usage[container.app_id] = (
                self.usage[container.app_id] - container.resources)

    def _usage_view(self, app: Application) -> AppUsage:
        return AppUsage(
            app_id=app.app_id,
            queue=app.queue,
            submit_order=app.submit_order,
            pending=app.pending_count(),
            usage=self.usage[app.app_id],
            container_unit=app.container_unit,
        )
