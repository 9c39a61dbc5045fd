"""Admission control and batch coalescing for the query server.

The :class:`~repro.ctree.parallel.QueryEngine` earns its throughput on
*batches* (deduplication, multiprocess fan-out) — but HTTP clients send
one query per request.  :class:`BatchCoalescer` closes that gap without
making anyone wait for company: an idle server dispatches a request at
once, and whatever queues up while that engine call runs *is* the next
batch (same execution parameters, at most ``max_batch``).  A cached
answer never enters a batch: :meth:`BatchCoalescer.submit` returns it
from :meth:`QueryEngine.probe <repro.ctree.parallel.QueryEngine.probe>`
on the event loop, so a hit is never queued behind a running K-NN.
Each caller gets exactly the ``(answers, stats)`` pair the serial API
would have returned.

Backpressure is per client: a client (identified by ``X-Client-Id`` or
its peer address) may have at most ``client_cap`` requests in flight;
beyond that :meth:`BatchCoalescer.submit` raises
:class:`BackpressureError`, which the app layer answers with ``429
Too Many Requests`` + ``Retry-After``.

The engine's batch calls are not thread-safe and fork worker processes,
so they all run on one dedicated executor thread; the pool is spawned
once at server startup (:meth:`QueryEngine.start
<repro.ctree.parallel.QueryEngine.start>`), so steady-state batches pay
neither fork nor thread startup.

Examples
--------
Inside the asyncio app::

    coalescer = BatchCoalescer(engine)
    await coalescer.start()
    answers, stats = await coalescer.submit(
        "subgraph", (1, True), query, client="10.0.0.7")
"""

from __future__ import annotations

import asyncio
import concurrent.futures
from dataclasses import dataclass, field
from typing import Optional

from repro.ctree.parallel import QueryEngine
from repro.exceptions import ReproError
from repro.graphs.graph import Graph
from repro.obs import trace
from repro.obs.metrics import MetricsRegistry, global_registry

__all__ = ["BackpressureError", "BatchCoalescer"]

#: ``server.coalesce.batch_size`` histogram buckets (1..max_batch).
_BATCH_SIZE_BOUNDS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)


class BackpressureError(ReproError):
    """A client exceeded its in-flight request cap (HTTP 429)."""

    def __init__(self, client: str, cap: int) -> None:
        super().__init__(
            f"client {client!r} already has {cap} requests in flight"
        )
        self.client = client
        self.cap = cap


@dataclass
class _Pending:
    """One admitted query waiting to be batched."""

    kind: str
    params: tuple
    query: Graph
    future: asyncio.Future = field(compare=False)
    #: Correlation id of the originating HTTP request (span attribute
    #: and slow-query-log key; empty for direct callers).
    request_id: str = ""
    #: Trace context exported at admission (``trace.export_context()``)
    #: — the engine call re-parents its spans here, bridging the
    #: executor thread back to the request's ``server.request`` span.
    trace_ctx: Optional[dict] = None

    @property
    def group(self) -> tuple:
        """Queries batch together iff kind and parameters agree."""
        return (self.kind, self.params)


class BatchCoalescer:
    """Coalesce concurrent requests into deterministic engine batches.

    Parameters
    ----------
    engine:
        The (already constructed) :class:`QueryEngine`; call its
        :meth:`~repro.ctree.parallel.QueryEngine.start` before serving
        so the worker pool exists before the first request.
    max_batch:
        Hard cap on queries per engine call.
    client_cap:
        Maximum in-flight requests per client before
        :class:`BackpressureError`.
    registry:
        Metrics registry for the ``server.coalesce.*`` /
        ``server.backpressure.*`` family (default: process-wide).
    """

    def __init__(
        self,
        engine: QueryEngine,
        max_batch: int = 64,
        client_cap: int = 8,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.engine = engine
        self.max_batch = max(1, int(max_batch))
        self.client_cap = max(1, int(client_cap))
        self._registry = registry if registry is not None \
            else global_registry()
        self._queue: Optional[asyncio.Queue] = None
        self._inflight: dict[str, int] = {}
        self._dispatcher: Optional[asyncio.Task] = None
        self._executor: Optional[concurrent.futures.ThreadPoolExecutor] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Spawn the dispatcher task and the engine executor thread."""
        self._queue = asyncio.Queue()
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-engine"
        )
        self._dispatcher = asyncio.get_running_loop().create_task(
            self._dispatch_loop()
        )

    async def stop(self) -> None:
        """Cancel the dispatcher and fail any still-pending requests."""
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
            self._dispatcher = None
        while self._queue is not None and not self._queue.empty():
            item = self._queue.get_nowait()
            if not item.future.done():
                item.future.set_exception(
                    ReproError("server shutting down")
                )
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    async def submit(self, kind: str, params: tuple, query: Graph,
                     client: str = "", request_id: str = "") -> tuple:
        """Answer one query: from the cache if it is there, else admit
        it and await its batched result.

        Returns the ``(answers, stats)`` pair of the underlying engine
        call, bit-identical to what the serial API would return.  Raises
        :class:`BackpressureError` when ``client`` is over its cap —
        checked first, so the cap holds for would-be hits too.
        ``request_id`` tags the entry in spans and logs; the current
        trace context (if any) is captured here so the batch executing
        on the engine thread re-parents under the caller's span.
        """
        if self._queue is None:
            raise ReproError("coalescer not started")
        count = self._inflight.get(client, 0)
        if count >= self.client_cap:
            self._registry.counter("server.backpressure.rejections").inc()
            raise BackpressureError(client, self.client_cap)
        hit = self.engine.probe(kind, params, query)
        if hit is not None:
            self._registry.counter("server.coalesce.bypassed").inc()
            trace.current_span().set(cache="hit")
            return hit
        self._inflight[client] = count + 1
        self._registry.gauge("server.inflight").inc()
        future = asyncio.get_running_loop().create_future()
        item = _Pending(kind=kind, params=params, query=query, future=future,
                        request_id=request_id,
                        trace_ctx=trace.export_context())
        try:
            self._queue.put_nowait(item)
            return await future
        finally:
            self._inflight[client] -= 1
            if not self._inflight[client]:
                del self._inflight[client]
            self._registry.gauge("server.inflight").dec()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    async def _collect_batch(self) -> list[_Pending]:
        """The first pending query plus every same-group query already
        queued (up to ``max_batch``); the rest keep their arrival order.
        Groups never mix inside one engine call."""
        assert self._queue is not None
        batch = [await self._queue.get()]
        others = []
        while not self._queue.empty():
            item = self._queue.get_nowait()
            if item.group == batch[0].group and len(batch) < self.max_batch:
                batch.append(item)
            else:
                others.append(item)
        for item in others:
            self._queue.put_nowait(item)
        return batch

    async def _dispatch_loop(self) -> None:
        while True:
            batch = await self._collect_batch()
            await self._execute(batch)

    async def _execute(self, batch: list[_Pending]) -> None:
        """Run one coalesced batch on the engine executor thread and
        fan results back out to the waiting futures."""
        kind, params = batch[0].group
        queries = [item.query for item in batch]
        self._registry.counter("server.coalesce.batches").inc()
        self._registry.counter("server.coalesce.queries").inc(len(batch))
        self._registry.counter("server.coalesce.coalesced") \
            .inc(len(batch) - 1)
        self._registry.histogram(
            "server.coalesce.batch_size", bounds=_BATCH_SIZE_BOUNDS
        ).observe(len(batch))

        # contextvars do not cross run_in_executor: re-attach the trace
        # context explicitly.  A coalesced batch has one span but many
        # originating requests — it parents under the *first* member's
        # request span and records every member's request id.
        batch_ctx = next(
            (item.trace_ctx for item in batch if item.trace_ctx is not None),
            None,
        )
        request_ids = [item.request_id for item in batch if item.request_id]

        def call():
            with trace.attach(batch_ctx), \
                    trace.span("coalescer.batch", kind=kind,
                               queries=len(batch),
                               request_ids=request_ids):
                if kind == "subgraph":
                    level, verify = params
                    return self.engine.query_many(queries, level=level,
                                                  verify=verify)
                k, = params
                return self.engine.knn_many(queries, k)

        loop = asyncio.get_running_loop()
        try:
            results = await loop.run_in_executor(self._executor, call)
        except Exception as exc:  # noqa: BLE001 - fan the failure out
            for item in batch:
                if not item.future.done():
                    item.future.set_exception(exc)
            return
        for item, result in zip(batch, results):
            if not item.future.done():
                item.future.set_result(result)
