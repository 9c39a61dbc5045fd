"""The HTTP query server: routing, validation, health.

:class:`QueryServer` puts the batched
:class:`~repro.ctree.parallel.QueryEngine` behind a network socket:

- ``POST /query`` / ``POST /knn`` parse strict graph JSON into
  :class:`~repro.graphs.graph.Graph` and answer through the
  :class:`~repro.server.coalescer.BatchCoalescer`: a cached answer
  returns at once, and concurrent misses share deduplicated, parallel
  engine batches;
- an answer is one JSON body;
- ``GET /metrics`` exports the process-wide
  :class:`~repro.obs.metrics.MetricsRegistry` in Prometheus text
  format; ``GET /healthz`` reports the index's own ``health()`` probe
  — a cheap :meth:`DiskCTree.fsck
  <repro.ctree.diskindex.DiskCTree.fsck>` for a disk-backed index, a
  full :func:`~repro.ctree.shards.fsck_shards` sweep (manifest
  placement + per-shard fsck) for a shard directory — TTL-cached;
- every error is a typed JSON envelope
  ``{"request_id": ..., "error": {"code": ..., "message": ...}}`` with
  the matching HTTP status (400/404/405/413/429/431/500/501/503);
- every request gets a correlation id (honoring an inbound
  ``X-Request-Id`` header) echoed in the response envelope and the
  ``X-Request-Id`` response header, a ``server.request`` span when
  tracing is enabled (see ``docs/OBSERVABILITY.md``), and a
  :class:`SlowQueryLog` entry when it exceeds the configured threshold;
- ``?explain=1`` on ``/query``/``/knn`` embeds the per-level EXPLAIN
  profile (:meth:`QueryStats.explain
  <repro.ctree.stats.QueryStats.explain>`) in the response.

The full endpoint reference, error-code table and ops
runbook live in ``docs/SERVING.md``.

Examples
--------
Serve an index from Python (the CLI equivalent is ``repro serve``)::

    from repro.server import QueryServer, ServerConfig

    server = QueryServer(tree, ServerConfig(port=8744, workers=4))
    server.serve_forever()          # Ctrl-C to stop

or in-process for tests and benchmarks::

    with QueryServer(tree, ServerConfig(port=0)).run_in_thread() as srv:
        requests_go_to = f"http://127.0.0.1:{srv.port}"
"""

from __future__ import annotations

import asyncio
import json
import re
import threading
import time
import uuid
from dataclasses import dataclass
from typing import IO, ClassVar, Optional, Union

from repro.ctree.diskindex import DEFAULT_CACHE_PAGES, DiskCTree
from repro.ctree.parallel import DEFAULT_CACHE_SIZE, QueryEngine
from repro.ctree.shards import ShardSet
from repro.ctree.tree import CTree
from repro.exceptions import GraphError, ReproError
from repro.graphs.graph import Graph
from repro.obs import trace
from repro.obs.metrics import MetricsRegistry, global_registry
from repro.obs.prometheus import CONTENT_TYPE as PROM_CONTENT_TYPE
from repro.obs.prometheus import render_prometheus
from repro.server.coalescer import BackpressureError, BatchCoalescer
from repro.server.protocol import (
    HTTPRequest,
    MAX_HEADER_BYTES,
    ProtocolError,
    read_request,
    send_json,
    send_response,
)

__all__ = ["QueryServer", "ServableIndex", "ServerConfig", "ServerThread",
           "SlowQueryLog", "new_request_id", "sanitize_request_id"]

#: Anything the server can put behind a socket: a single tree (in this
#: process or on disk) or a sharded partition of one database.
ServableIndex = Union[CTree, DiskCTree, ShardSet]

#: The keys a ``POST /query`` and a ``POST /knn`` body may carry (the
#: field tables of docs/SERVING.md).
_QUERY_KEYS = frozenset({"query", "level", "verify"})
_KNN_KEYS = frozenset({"query", "k"})

#: Request-latency histogram buckets (seconds).
_LATENCY_BOUNDS = tuple(4.0 ** e for e in range(-8, 5))

#: Inbound ``X-Request-Id`` values must match this to be honored.
_REQUEST_ID_RE = re.compile(r"^[A-Za-z0-9._-]{1,64}$")


def new_request_id() -> str:
    """A fresh 16-hex-char correlation id."""
    return uuid.uuid4().hex[:16]


def sanitize_request_id(value: Optional[str]) -> Optional[str]:
    """``value`` if it is a safe inbound ``X-Request-Id``, else ``None``.

    Accepts 1–64 characters of ``[A-Za-z0-9._-]`` — enough for UUIDs
    and common tracing-header formats while keeping ids safe to echo
    into headers, JSON envelopes, and NDJSON log lines.
    """
    if isinstance(value, str) and _REQUEST_ID_RE.match(value):
        return value
    return None


@dataclass
class ServerConfig:
    """Tunables of one :class:`QueryServer` (defaults suit a laptop).

    The ops runbook in ``docs/SERVING.md`` documents how each knob
    trades latency against throughput.
    """

    #: Bind address; use ``"0.0.0.0"`` to accept remote clients.
    host: str = "127.0.0.1"
    #: TCP port; 0 binds an ephemeral port (tests/benchmarks).
    port: int = 8744
    #: Engine worker processes over a single-tree index (1 = in-process
    #: execution); S > 1 shards get one process each instead.
    workers: int = 1
    #: LRU answer-cache capacity of the engine (0 disables caching).
    cache_size: int = DEFAULT_CACHE_SIZE
    #: Buffer-pool pages (and resident decoded nodes) per disk handle.
    cache_pages: int = DEFAULT_CACHE_PAGES
    #: Not a setting: the true wait of an admission timer that is gone.
    #: Goes with benchmarks/spine/workloads.py's read (ROADMAP item 1(c)).
    batch_window: ClassVar[float] = 0.0
    #: Per-client in-flight request cap before 429.
    client_cap: int = 8
    #: Request-body byte cap before 413.
    max_body_bytes: int = 8 * 1024 * 1024
    #: Seconds a /healthz probe result stays cached (0 = probe every
    #: request).
    healthz_ttl: float = 5.0
    #: Seconds a request may take before it counts as slow (the
    #: ``server.slow_queries`` counter and the slow-query log).
    slow_query_seconds: float = 1.0
    #: NDJSON slow-query log path; ``None`` counts slow requests in
    #: metrics but writes nothing.
    slow_query_path: Optional[str] = None


# ----------------------------------------------------------------------
# Strict request validation
# ----------------------------------------------------------------------
def _bad_param(message: str) -> ProtocolError:
    return ProtocolError(400, "bad_param", message)


def parse_graph_field(payload: dict, field: str = "query") -> Graph:
    """Strictly validate and build the graph under ``payload[field]``.

    The shape must be ``{"labels": [...], "edges": [[u, v], [u, v,
    label], ...], "name"?: str}`` with integer endpoints in range —
    anything else raises :class:`ProtocolError` (400, ``bad_graph``),
    which the server answers as a typed error response.

    Examples
    --------
    >>> parse_graph_field({"query": {"labels": ["C", "O"],
    ...                             "edges": [[0, 1]]}})
    <Graph |V|=2 |E|=1>
    """
    obj = payload.get(field)
    if not isinstance(obj, dict):
        raise ProtocolError(
            400, "bad_graph",
            f"{field!r} must be an object with 'labels' and 'edges'",
        )
    unknown = set(obj) - {"labels", "edges", "name"}
    if unknown:
        raise ProtocolError(
            400, "bad_graph",
            f"unknown graph keys {sorted(unknown)}; "
            f"allowed: labels, edges, name",
        )
    labels = obj.get("labels")
    edges = obj.get("edges")
    if not isinstance(labels, list) or not labels:
        raise ProtocolError(
            400, "bad_graph", "'labels' must be a non-empty array"
        )
    if not isinstance(edges, list):
        raise ProtocolError(400, "bad_graph", "'edges' must be an array")
    for edge in edges:
        if (not isinstance(edge, list) or len(edge) not in (2, 3)
                or not all(isinstance(e, int) and not isinstance(e, bool)
                           for e in edge[:2])):
            raise ProtocolError(
                400, "bad_graph",
                f"each edge must be [u, v] or [u, v, label] with integer "
                f"endpoints, got {edge!r}",
            )
    try:
        return Graph.from_dict(obj)
    except (GraphError, KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(
            400, "bad_graph", f"invalid graph: {exc}"
        ) from exc


def _check_keys(payload, allowed: frozenset[str]) -> None:
    if not isinstance(payload, dict):
        raise _bad_param("request body must be a JSON object")
    unknown = set(payload) - allowed
    if unknown:
        raise _bad_param(
            f"unknown request keys {sorted(unknown)}; "
            f"allowed: {', '.join(sorted(allowed))}"
        )


def _parse_level(payload: dict):
    level = payload.get("level", 1)
    if level == "max":
        return level
    if isinstance(level, int) and not isinstance(level, bool) and level >= 0:
        return level
    raise _bad_param(
        f"'level' must be a non-negative integer or \"max\", got {level!r}"
    )


def _parse_bool(payload: dict, field: str, default: bool) -> bool:
    value = payload.get(field, default)
    if not isinstance(value, bool):
        raise _bad_param(f"{field!r} must be true or false, got {value!r}")
    return value


def _parse_k(payload: dict) -> int:
    k = payload.get("k")
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise _bad_param(f"'k' must be a positive integer, got {k!r}")
    return k


# ----------------------------------------------------------------------
# Slow-query logging
# ----------------------------------------------------------------------
class SlowQueryLog:
    """A slow-query log: NDJSON records keyed by request id.

    Every request at or over ``threshold`` seconds bumps the
    ``server.slow_queries`` counter and is appended to ``path`` as one
    JSON line — ``{"request_id", "method", "path", "seconds",
    "threshold"}``.  With ``path=None`` only the counter moves.
    """

    def __init__(self, path: Optional[str], threshold: float,
                 registry: Optional[MetricsRegistry] = None) -> None:
        self.path = path
        self.threshold = max(0.0, float(threshold))
        self._registry = registry if registry is not None \
            else global_registry()
        self._fh: Optional[IO[str]] = None

    def record(self, request_id: str, method: str, path: str,
               seconds: float) -> bool:
        """Account one finished request; returns True if it was slow."""
        if seconds < self.threshold:
            return False
        self._registry.counter("server.slow_queries").inc()
        if self.path is not None:
            if self._fh is None:
                self._fh = open(self.path, "a", encoding="utf-8")
            self._fh.write(json.dumps({
                "request_id": request_id,
                "method": method,
                "path": path,
                "seconds": seconds,
                "threshold": self.threshold,
            }, separators=(",", ":")) + "\n")
            self._fh.flush()
        return True

    def close(self) -> None:
        """Close the log file, if one was opened (idempotent)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None


# ----------------------------------------------------------------------
# Health probing
# ----------------------------------------------------------------------
class HealthProbe:
    """The ``/healthz`` backend: the index's own integrity probe,
    TTL-cached.

    What is checked belongs to the index kind (``index.health()``): a
    non-deep :meth:`DiskCTree.fsck
    <repro.ctree.diskindex.DiskCTree.fsck>` of the page file, the full
    :func:`~repro.ctree.shards.fsck_shards` sweep of a shard directory,
    the shape invariants of an in-memory tree.  The probe runs on the
    event loop's default executor, not the engine's thread, so a slow
    one never blocks query serving, and its result is cached for ``ttl``
    seconds.
    """

    def __init__(self, index: ServableIndex, ttl: float = 5.0,
                 registry: Optional[MetricsRegistry] = None) -> None:
        self.index = index
        self.ttl = max(0.0, float(ttl))
        self._registry = registry if registry is not None \
            else global_registry()
        self._cached: Optional[tuple[bool, dict]] = None
        self._cached_at = -1.0

    def _probe(self) -> tuple[bool, dict]:
        """Run the actual check (blocking; called on an executor)."""
        self._registry.counter("server.healthz.probes").inc()
        return self.index.health()

    async def check(self) -> tuple[bool, dict]:
        """The (possibly cached) health verdict and its detail payload."""
        now = time.monotonic()
        if (self._cached is not None
                and now - self._cached_at < self.ttl):
            return self._cached
        loop = asyncio.get_running_loop()
        healthy, payload = await loop.run_in_executor(None, self._probe)
        if not healthy:
            self._registry.counter("server.healthz.failures").inc()
        self._registry.gauge("server.healthy").set(1 if healthy else 0)
        self._cached = (healthy, payload)
        self._cached_at = now
        return self._cached


# ----------------------------------------------------------------------
# The server
# ----------------------------------------------------------------------
class ServerThread:
    """Handle on a :class:`QueryServer` running in a background thread.

    Returned by :meth:`QueryServer.run_in_thread`; usable as a context
    manager.  ``port`` is the bound TCP port (useful with ``port=0``).
    """

    def __init__(self, server: "QueryServer", thread: threading.Thread,
                 loop: asyncio.AbstractEventLoop,
                 stop_event: asyncio.Event) -> None:
        self.server = server
        self._thread = thread
        self._loop = loop
        self._stop_event = stop_event

    @property
    def port(self) -> int:
        """The TCP port the server is listening on."""
        return self.server.port

    def stop(self) -> None:
        """Stop serving, join the thread, and reap the worker pool."""
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._stop_event.set)
            self._thread.join(timeout=30)
        self.server.engine.close()

    def __enter__(self) -> "ServerThread":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


class QueryServer:
    """An asyncio HTTP/1.1 server over one read-only index.

    Parameters
    ----------
    index:
        A built :class:`~repro.ctree.tree.CTree`, an open
        :class:`~repro.ctree.diskindex.DiskCTree`, or a
        :class:`~repro.ctree.shards.ShardSet` (the engine then gives
        each shard its own worker process, and ``/healthz`` probes
        every shard).
    config:
        A :class:`ServerConfig` (defaults serve localhost:8744 with an
        in-process engine).

    Examples
    --------
    >>> from repro.ctree.bulkload import bulk_load
    >>> tree = bulk_load([Graph(["C", "O"], [(0, 1)])], min_fanout=2)
    >>> server = QueryServer(tree, ServerConfig(port=0))
    >>> with server.run_in_thread() as handle:
    ...     _ = handle.port   # POST /query, GET /metrics, ... land here
    """

    def __init__(self, index: ServableIndex,
                 config: Optional[ServerConfig] = None) -> None:
        self.index = index
        self.config = config or ServerConfig()
        self.engine = QueryEngine(
            index,
            workers=self.config.workers,
            cache_size=self.config.cache_size,
            cache_pages=self.config.cache_pages,
        )
        self._registry = global_registry()
        self.coalescer = BatchCoalescer(
            self.engine,
            client_cap=self.config.client_cap,
            registry=self._registry,
        )
        self.health = HealthProbe(index, ttl=self.config.healthz_ttl,
                                  registry=self._registry)
        self.slow_log = SlowQueryLog(
            self.config.slow_query_path,
            threshold=self.config.slow_query_seconds,
            registry=self._registry,
        )
        self.port: int = self.config.port
        self._asyncio_server: Optional[asyncio.AbstractServer] = None
        self._connections: set[asyncio.Task] = set()
        self._latency = self._registry.histogram(
            "server.http.request_seconds", bounds=_LATENCY_BOUNDS
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listening socket and start the coalescer."""
        await self.coalescer.start()
        self._asyncio_server = await asyncio.start_server(
            self._handle_connection,
            host=self.config.host,
            port=self.config.port,
            limit=MAX_HEADER_BYTES,
        )
        self.port = self._asyncio_server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop accepting, close open connections, drain the coalescer."""
        if self._asyncio_server is not None:
            self._asyncio_server.close()
            await self._asyncio_server.wait_closed()
            self._asyncio_server = None
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections,
                                 return_exceptions=True)
        await self.coalescer.stop()
        self.slow_log.close()

    async def _serve_async(self, ready: Optional[threading.Event],
                           stop_event: asyncio.Event) -> None:
        await self.start()
        if ready is not None:
            ready.set()
        try:
            await stop_event.wait()
        finally:
            await self.stop()

    def serve_forever(self) -> None:
        """Blocking entry point (the CLI's ``repro serve``): pre-fork
        the worker pool, serve until interrupted."""
        self.engine.start()

        async def _run():
            await self.start()
            print(f"repro serve: http://{self.config.host}:{self.port} "
                  f"({self.index.summary()}, {self._describe_workers()})",
                  flush=True)
            try:
                await asyncio.Event().wait()
            finally:
                await self.stop()

        try:
            asyncio.run(_run())
        except KeyboardInterrupt:
            pass
        finally:
            self.engine.close()

    def run_in_thread(self) -> ServerThread:
        """Start serving on a daemon thread; returns a handle with the
        bound port and a ``stop()`` — the harness tests and the server
        benchmark run against this.

        The engine's worker pool is spawned from the *calling* thread
        before the event loop starts, keeping process forks out of the
        multi-threaded phase.
        """
        self.engine.start()
        ready = threading.Event()
        box: dict = {}

        def runner() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            stop_event = asyncio.Event()
            box["loop"] = loop
            box["stop"] = stop_event
            try:
                loop.run_until_complete(self._serve_async(ready, stop_event))
            finally:
                loop.close()

        thread = threading.Thread(target=runner, daemon=True,
                                  name="repro-serve")
        thread.start()
        if not ready.wait(timeout=30):
            raise ReproError("server failed to start within 30s")
        return ServerThread(self, thread, box["loop"], box["stop"])

    def _describe_workers(self) -> str:
        """The engine's real process count, and whether the configured
        ``workers`` went unused (S > 1 shards get one process each)."""
        text = f"workers={self.engine.workers}"
        if self.config.workers not in (1, self.engine.workers):
            text += f", --workers {self.config.workers} unused"
        return text

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)
        peer = writer.get_extra_info("peername")
        peer_id = peer[0] if isinstance(peer, tuple) else str(peer)
        try:
            while True:
                try:
                    request = await read_request(
                        reader, max_body_bytes=self.config.max_body_bytes
                    )
                except ProtocolError as exc:
                    await self._send_error(writer, exc, keep_alive=False)
                    break
                if request is None:
                    break
                request.request_id = (
                    sanitize_request_id(request.headers.get("x-request-id"))
                    or new_request_id()
                )
                keep_alive = request.keep_alive
                self._registry.counter("server.http.requests").inc()
                start = time.perf_counter()
                try:
                    with trace.span("server.request",
                                    request_id=request.request_id,
                                    method=request.method,
                                    path=request.path):
                        await self._route(request, writer, peer_id)
                except ProtocolError as exc:
                    await self._send_error(writer, exc, keep_alive,
                                           request_id=request.request_id)
                except (ConnectionError, asyncio.CancelledError):
                    raise
                except Exception as exc:  # noqa: BLE001 - typed 500
                    await self._respond(
                        writer, 500,
                        {"error": {"code": "internal",
                                   "message": f"{type(exc).__name__}: "
                                              f"{exc}"}},
                        keep_alive=keep_alive,
                        request_id=request.request_id,
                    )
                finally:
                    elapsed = time.perf_counter() - start
                    self._latency.observe(elapsed)
                    self.slow_log.record(request.request_id,
                                         request.method, request.path,
                                         elapsed)
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def _count_status(self, status: int) -> None:
        self._registry.counter(
            f"server.http.status_{status // 100}xx"
        ).inc()

    async def _respond(self, writer, status: int, payload,
                       keep_alive: bool, request_id: str = "") -> None:
        self._count_status(status)
        extra = None
        if request_id:
            payload = {"request_id": request_id, **payload}
            extra = {"X-Request-Id": request_id}
        await send_json(writer, status, payload, keep_alive=keep_alive,
                        extra_headers=extra)

    async def _send_error(self, writer, exc: ProtocolError,
                          keep_alive: bool, request_id: str = "") -> None:
        # Pre-app rejections (413/431/501 raised inside protocol.py)
        # carry the inbound header when it was parsed; otherwise mint an
        # id so even those envelopes are correlatable.
        rid = (sanitize_request_id(getattr(exc, "request_id", None))
               or request_id or new_request_id())
        await self._respond(
            writer, exc.status,
            {"error": {"code": exc.code, "message": str(exc)}},
            keep_alive=keep_alive,
            request_id=rid,
        )

    async def _route(self, request: HTTPRequest,
                     writer: asyncio.StreamWriter, peer_id: str) -> None:
        path, method = request.path, request.method
        if path == "/":
            handler, allowed = self._handle_info, ("GET",)
        elif path == "/healthz":
            handler, allowed = self._handle_healthz, ("GET",)
        elif path == "/metrics":
            handler, allowed = self._handle_metrics, ("GET",)
        elif path == "/query":
            handler, allowed = self._handle_query, ("POST",)
        elif path == "/knn":
            handler, allowed = self._handle_knn, ("POST",)
        else:
            raise ProtocolError(404, "not_found",
                                f"no such endpoint: {path}")
        if method not in allowed:
            raise ProtocolError(
                405, "method_not_allowed",
                f"{path} accepts {'/'.join(allowed)}, not {method}",
            )
        await handler(request, writer, peer_id)

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    async def _handle_info(self, request, writer, peer_id) -> None:
        await self._respond(writer, 200, {
            "service": "repro-ctree",
            "index": {"kind": self.index.kind, **self.index.describe()},
            "workers": self.engine.workers,
            "endpoints": ["/", "/healthz", "/metrics", "/query", "/knn"],
        }, keep_alive=request.keep_alive, request_id=request.request_id)

    async def _handle_healthz(self, request, writer, peer_id) -> None:
        healthy, detail = await self.health.check()
        payload = {
            "status": "ok" if healthy else "unhealthy",
            "index": self.index.summary(),
            **detail,
        }
        await self._respond(writer, 200 if healthy else 503, payload,
                            keep_alive=request.keep_alive,
                            request_id=request.request_id)

    async def _handle_metrics(self, request, writer, peer_id) -> None:
        body = render_prometheus(self._registry).encode("utf-8")
        self._count_status(200)
        await send_response(writer, 200, body,
                            content_type=PROM_CONTENT_TYPE,
                            keep_alive=request.keep_alive,
                            extra_headers={"X-Request-Id":
                                           request.request_id})

    @staticmethod
    def _wants_explain(request: HTTPRequest) -> bool:
        """True when the request asked for an EXPLAIN profile
        (``?explain=1`` — also accepts ``true``/``yes``)."""
        return (request.param("explain") or "").lower() in ("1", "true",
                                                            "yes")

    async def _handle_query(self, request, writer, peer_id) -> None:
        payload = request.json()
        _check_keys(payload, _QUERY_KEYS)
        query = parse_graph_field(payload, "query")
        level = _parse_level(payload)
        verify = _parse_bool(payload, "verify", True)
        explain = self._wants_explain(request)
        answers, stats = await self._submit(
            "subgraph", (level, verify), query, request, peer_id
        )
        self._registry.counter("server.queries.subgraph").inc()
        stats_dict = stats.to_dict()
        profile = stats.explain() if explain else None
        body = {"answers": answers, "stats": stats_dict}
        if profile is not None:
            body["explain"] = profile
        await self._respond(writer, 200, body,
                            keep_alive=request.keep_alive,
                            request_id=request.request_id)

    async def _handle_knn(self, request, writer, peer_id) -> None:
        payload = request.json()
        _check_keys(payload, _KNN_KEYS)
        query = parse_graph_field(payload, "query")
        k = _parse_k(payload)
        explain = self._wants_explain(request)
        results, stats = await self._submit(
            "knn", (k,), query, request, peer_id
        )
        self._registry.counter("server.queries.knn").inc()
        stats_dict = stats.to_dict()
        profile = stats.explain() if explain else None
        body = {"results": [[gid, sim] for gid, sim in results],
                "stats": stats_dict}
        if profile is not None:
            body["explain"] = profile
        await self._respond(writer, 200, body,
                            keep_alive=request.keep_alive,
                            request_id=request.request_id)

    async def _submit(self, kind, params, query, request, peer_id):
        try:
            return await self.coalescer.submit(
                kind, params, query,
                client=request.headers.get("x-client-id", peer_id),
                request_id=request.request_id,
            )
        except BackpressureError as exc:
            raise ProtocolError(429, "backpressure", str(exc)) from exc
