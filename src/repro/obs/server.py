"""The live observability daemon behind ``keddah serve``.

A stdlib :class:`~http.server.ThreadingHTTPServer` exposing one
telemetry *source* — either a live in-process :class:`~repro.obs.
telemetry.Telemetry` (``keddah campaign --serve-port N``) or a
telemetry directory on disk that may still be being written
(``keddah serve --telemetry DIR``):

==============  =====================================================
``/healthz``    JSON liveness: uptime, source kind, endpoint list
``/metrics``    Prometheus exposition text over the live registry
``/snapshot``   the registry as JSON (what ``keddah top`` renders)
``/probes``     probe series as JSON
``/spans``      closed spans as JSON (``?limit=N`` for the tail)
``/events``     Server-Sent Events: campaign progress stream
==============  =====================================================

``/events`` speaks standard SSE (``event:``/``data:`` frames, comment
keep-alives) so ``curl -N`` and any EventSource client work; the query
parameters ``replay=N`` (historical events first) and ``max=N`` (close
after N events — handy for scripts and tests) bound the stream.

The server never *mutates* telemetry: every endpoint is a read, and
serving stays off unless asked
— the PR 3 contract (captures byte-identical, null path free) holds
with a daemon attached.
"""

from __future__ import annotations

import json
import threading
import time as _time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, List, Optional
from urllib.parse import parse_qs, urlparse

from repro.obs.aggregate import EventBroker
from repro.obs.export import load_telemetry_dir, prometheus_text
from repro.obs.metrics import MetricsRegistry
from repro.obs.probes import ProbeLog
from repro.obs.telemetry import Telemetry

ENDPOINTS = ("/healthz", "/metrics", "/snapshot", "/probes", "/spans",
             "/events")

#: How long an /events handler waits on its queue before emitting a
#: keep-alive comment and re-checking the shutdown flag (seconds).
_EVENT_POLL_S = 0.25


# -- telemetry sources ---------------------------------------------------------------


class LiveSource:
    """Serves a live, in-process :class:`Telemetry` (campaign mode).

    Reads are safe against the simulating thread: registry enumeration
    copies the metric table atomically under the GIL, and probe series
    only ever append.  A metric read mid-update can be one increment
    stale — fine for monitoring, and nothing here writes back.
    """

    kind = "live"

    def __init__(self, telemetry: Telemetry):
        self.telemetry = telemetry

    def refresh(self) -> None:  # live state needs no reloading
        pass

    @property
    def registry(self) -> MetricsRegistry:
        return self.telemetry.registry

    def metrics_snapshot(self) -> List[Dict[str, Any]]:
        return self.telemetry.registry.snapshot()

    def prometheus(self) -> str:
        return prometheus_text(self.telemetry.registry)

    def probes(self) -> ProbeLog:
        return self.telemetry.probes

    def spans(self) -> List[Dict[str, Any]]:
        return [span.to_dict() for span in self.telemetry.spans]

    def describe(self) -> Dict[str, Any]:
        return {"kind": self.kind,
                "metrics": len(self.telemetry.registry),
                "probe_series": len(self.telemetry.probes.series)}


class DirSource:
    """Serves a telemetry directory, reloading as the artefacts change.

    The directory may be mid-write (a campaign streaming artefacts):
    loading goes through the tolerant :func:`load_telemetry_dir`, so a
    missing ``probes.json`` or a truncated ``spans.jsonl`` degrades to
    empty rather than a 500.

    A *pipeline* directory (``keddah pipeline --dir DIR``: has a
    ``nodes/`` of per-stage dirs, or a ``pipeline.json`` spec) is
    recognised automatically: every node's ``telemetry/`` subdir is
    aggregated, node metrics gain a ``node=<name>`` label and node
    probe series are prefixed ``<name>/``, so ``keddah top DIR`` and
    ``keddah serve`` work on a pipeline root out of the box.
    """

    def __init__(self, directory):
        self.root = Path(directory)
        self._lock = threading.Lock()
        self._fingerprint: Any = None
        self._metrics: List[Dict[str, Any]] = []
        self._probes = ProbeLog()
        self._spans: List[Dict[str, Any]] = []
        self.reloads = 0
        self.refresh()

    @property
    def kind(self) -> str:
        return "pipeline-dir" if self._is_pipeline() else "dir"

    def _is_pipeline(self) -> bool:
        return ((self.root / "nodes").is_dir()
                or (self.root / "pipeline.json").is_file())

    def _telemetry_dirs(self) -> List[Any]:
        """(node label, directory) pairs to aggregate; label None = root.

        A plain telemetry directory is just ``[(None, root)]``; a
        pipeline root contributes its optional run-level ``telemetry/``
        plus every ``nodes/<name>@<sig>/telemetry/`` dir, labelled by
        the node name (the part before ``@``).
        """
        if not self._is_pipeline():
            return [(None, self.root)]
        dirs: List[Any] = [(None, self.root / "telemetry")]
        nodes_dir = self.root / "nodes"
        if nodes_dir.is_dir():
            for node_dir in sorted(nodes_dir.iterdir()):
                telemetry_dir = node_dir / "telemetry"
                if telemetry_dir.is_dir():
                    dirs.append((node_dir.name.split("@", 1)[0],
                                 telemetry_dir))
        return dirs

    def _stat_fingerprint(self) -> Any:
        parts = []
        for label, directory in self._telemetry_dirs():
            for name in ("metrics.json", "metrics.prom", "probes.json",
                         "spans.jsonl"):
                path = directory / name
                try:
                    stat = path.stat()
                    parts.append((label, name, stat.st_mtime_ns,
                                  stat.st_size))
                except OSError:
                    parts.append((label, name, None, None))
        return tuple(parts)

    def refresh(self) -> None:
        fingerprint = self._stat_fingerprint()
        with self._lock:
            if fingerprint == self._fingerprint:
                return
            metrics: List[Dict[str, Any]] = []
            probes = ProbeLog()
            spans: List[Dict[str, Any]] = []
            for label, directory in self._telemetry_dirs():
                if not directory.is_dir():
                    continue
                loaded_metrics, loaded_probes, loaded_spans = (
                    load_telemetry_dir(directory))
                if label is None:
                    metrics.extend(loaded_metrics)
                else:
                    for entry in loaded_metrics:
                        entry = dict(entry)
                        entry["labels"] = dict(entry.get("labels") or {},
                                               node=label)
                        metrics.append(entry)
                for name, series in loaded_probes.series.items():
                    key = name if label is None else f"{label}/{name}"
                    probes.series[key] = series
                spans.extend(span.to_dict() for span in loaded_spans)
            self._metrics = metrics
            self._probes = probes
            self._spans = spans
            self._fingerprint = fingerprint
            self.reloads += 1

    def metrics_snapshot(self) -> List[Dict[str, Any]]:
        with self._lock:
            return list(self._metrics)

    def prometheus(self) -> str:
        registry = MetricsRegistry()
        registry.merge(self.metrics_snapshot())
        return prometheus_text(registry)

    def probes(self) -> ProbeLog:
        with self._lock:
            return self._probes

    def spans(self) -> List[Dict[str, Any]]:
        with self._lock:
            return list(self._spans)

    def describe(self) -> Dict[str, Any]:
        return {"kind": self.kind, "directory": str(self.root),
                "reloads": self.reloads,
                "metrics": len(self.metrics_snapshot()),
                "probe_series": len(self.probes().series)}


# -- the server ----------------------------------------------------------------------


class ObservabilityServer:
    """HTTP daemon over a telemetry source.

    ``port=0`` binds an ephemeral port (read it back from
    :attr:`port`).  :meth:`start` spawns the accept loop and
    :meth:`stop` shuts it down; the object is also a context manager.
    """

    def __init__(self, source, broker: Optional[EventBroker] = None,
                 host: str = "127.0.0.1", port: int = 0):
        self.source = source
        self.broker = broker if broker is not None else EventBroker()
        self.started_wall = _time.time()
        self.requests_served = 0
        self._stopping = threading.Event()
        self._threads: List[threading.Thread] = []
        handler = _make_handler(self)
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self.host = host
        self.port = self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- lifecycle -----------------------------------------------------------------

    def start(self) -> "ObservabilityServer":
        """Spawn the accept loop; a second call is a no-op.

        ``serve_telemetry`` returns a started server that callers often
        enter with ``with``, which calls this again: a second accept
        loop would outlive :meth:`stop` (``shutdown`` waits for only
        one loop to exit).
        """
        if self._threads:
            return self
        accept = threading.Thread(target=self._httpd.serve_forever,
                                  kwargs={"poll_interval": 0.1},
                                  name="keddah-serve-accept", daemon=True)
        accept.start()
        self._threads.append(accept)
        return self

    def stop(self) -> None:
        if self._stopping.is_set():
            return
        self._stopping.set()
        self._httpd.shutdown()
        self._httpd.server_close()
        for thread in self._threads:
            thread.join(timeout=2.0)

    def __enter__(self) -> "ObservabilityServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- payload builders (one per endpoint) ---------------------------------------

    def payload_healthz(self) -> Dict[str, Any]:
        return {"status": "ok",
                "uptime_s": round(_time.time() - self.started_wall, 3),
                "source": self.source.describe(),
                "requests_served": self.requests_served,
                "events_published": self.broker.published,
                "endpoints": list(ENDPOINTS)}


def _make_handler(server: ObservabilityServer):
    """A request-handler class closed over one ObservabilityServer."""

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        server_version = "keddah-serve"

        def log_message(self, *args):  # no access-log noise on stderr
            pass

        # -- plumbing --------------------------------------------------------------

        def _send(self, body: bytes, content_type: str,
                  status: int = 200) -> None:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _send_json(self, payload: Any, status: int = 200) -> None:
            body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
            self._send(body, "application/json; charset=utf-8", status)

        # -- routing ---------------------------------------------------------------

        def do_GET(self) -> None:
            parsed = urlparse(self.path)
            route = parsed.path.rstrip("/") or "/"
            query = parse_qs(parsed.query)
            server.requests_served += 1
            try:
                server.source.refresh()
                if route == "/healthz" or route == "/":
                    self._send_json(server.payload_healthz())
                elif route == "/metrics":
                    self._send(server.source.prometheus().encode("utf-8"),
                               "text/plain; version=0.0.4; charset=utf-8")
                elif route == "/snapshot":
                    self._send_json(server.source.metrics_snapshot())
                elif route == "/probes":
                    self._send_json(server.source.probes().to_dict())
                elif route == "/spans":
                    spans = server.source.spans()
                    limit = _int_param(query, "limit")
                    if limit is not None:
                        spans = spans[-limit:]
                    self._send_json(spans)
                elif route == "/events":
                    self._stream_events(query)
                else:
                    self._send_json({"error": f"no such endpoint {route!r}",
                                     "endpoints": list(ENDPOINTS)},
                                    status=404)
            except (BrokenPipeError, ConnectionResetError):
                pass  # client went away mid-response

        # -- SSE -------------------------------------------------------------------

        def _stream_events(self, query: Dict[str, List[str]]) -> None:
            replay = _int_param(query, "replay")
            maximum = _int_param(query, "max")
            if replay is None:
                replay = len(server.broker.history)
            subscription = server.broker.subscribe(replay=replay)
            self.send_response(200)
            self.send_header("Content-Type", "text/event-stream")
            self.send_header("Cache-Control", "no-cache")
            self.send_header("Connection", "close")
            self.end_headers()
            sent = 0
            try:
                self.wfile.write(b": keddah event stream\n\n")
                self.wfile.flush()
                while not server._stopping.is_set():
                    if maximum is not None and sent >= maximum:
                        break
                    event = subscription.get(timeout=_EVENT_POLL_S)
                    if event is None:
                        self.wfile.write(b": keep-alive\n\n")
                        self.wfile.flush()
                        continue
                    frame = (f"event: {event.get('kind', 'message')}\n"
                             f"id: {event.get('seq', 0)}\n"
                             f"data: {json.dumps(event, sort_keys=True)}\n\n")
                    self.wfile.write(frame.encode("utf-8"))
                    self.wfile.flush()
                    sent += 1
            except (BrokenPipeError, ConnectionResetError):
                pass
            finally:
                subscription.close()
                self.close_connection = True

    return Handler


def _int_param(query: Dict[str, List[str]], name: str) -> Optional[int]:
    values = query.get(name)
    if not values:
        return None
    try:
        return max(0, int(values[-1]))
    except ValueError:
        return None


# -- convenience constructors --------------------------------------------------------


def serve_telemetry(telemetry: Telemetry, port: int = 0,
                    host: str = "127.0.0.1",
                    broker: Optional[EventBroker] = None
                    ) -> ObservabilityServer:
    """A started server over a live Telemetry (campaign attach mode)."""
    server = ObservabilityServer(LiveSource(telemetry), broker=broker,
                                 host=host, port=port)
    return server.start()


def serve_directory(directory, port: int = 0,
                    host: str = "127.0.0.1") -> ObservabilityServer:
    """A started server over a telemetry directory (standalone mode)."""
    server = ObservabilityServer(DirSource(directory), host=host, port=port)
    return server.start()
