"""Parallel batched query engine over a shared read-only C-tree.

The paper (and PRs 1-4) optimize one query at a time; the serving metric
that matters at scale is *batch throughput* over a shared immutable index
(cf. the reachability-index survey and MSQ-Index evaluations).
:class:`QueryEngine` answers batches of subgraph and K-NN queries using

- a persistent :mod:`multiprocessing` worker pool (fork start method).
  An in-memory :class:`~repro.ctree.tree.CTree` is inherited by the
  workers copy-on-write — including its memoized
  :class:`~repro.graphs.labelspace.TargetContext` caches, so forked
  workers start warm.  A :class:`~repro.ctree.diskindex.DiskCTree` is
  reopened per worker as an independent read-only handle over the same
  page file (``wal=False`` — workers never write);
- an LRU **answer cache** keyed by :meth:`Graph.signature()
  <repro.graphs.graph.Graph.signature>` (buckets verified by exact
  structural equality, so an incomplete-invariant collision can never
  return a wrong answer);
- **batch deduplication**: structurally identical queries in one batch
  execute once and fan out to every position.

**Determinism.**  ``query_many(queries, workers=W)`` returns answers
bit-identical to the serial loop ``[subgraph_query(tree, q) for q in
queries]`` for every ``W``, in input order.  Per-query stats are
logically identical too (:meth:`QueryStats.deterministic_dict
<repro.ctree.stats.QueryStats.deterministic_dict>`); only wall-clock
timings and disk page-I/O temperatures vary with the execution schedule.
Worker-side metrics are shipped home as registry snapshot deltas and
folded into the parent's global registry
(:meth:`~repro.obs.metrics.MetricsRegistry.merge`), so a parallel run
reports the same process-wide totals as a serial one.

**Read-only contract.**  Workers fork (or reopen) the index as it exists
at pool creation.  Mutating the index mid-flight is not supported; call
:meth:`QueryEngine.refresh` after a mutation to drop the answer cache
and expose the new state.  For a disk index the long-lived pool
survives the refresh: the engine bumps an *index epoch* that rides on
every task, and each worker lazily swaps its read-only handle the
first time it sees a task from a newer epoch — no respawn, so
incremental appends, deletes, and compactions become visible to
pre-forked workers at the cost of one reopen per worker.  In-memory
trees are shared by fork-time copy-on-write and still require a
respawn.

On platforms without the ``fork`` start method the engine degrades to
serial in-process execution (caching still applies); answers are
identical either way.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from repro.graphs.graph import Graph
from repro.obs import trace
from repro.obs.metrics import global_registry
from repro.ctree.diskindex import DiskCTree
from repro.ctree.shardcache import LRUAnswerCache
from repro.ctree.shardcache import structure_key as _structure_key
from repro.ctree.similarity_query import knn_query
from repro.ctree.stats import KnnStats, QueryStats
from repro.ctree.subgraph_query import subgraph_query
from repro.ctree.tree import CTree

__all__ = ["BatchReport", "QueryEngine"]

Index = Union[CTree, DiskCTree]

_KIND_SUBGRAPH = "subgraph"
_KIND_KNN = "knn"

#: worker-process globals: the index handle queries run against, the
#: index epoch that handle reflects, and how to reopen it (disk only)
_WORKER_INDEX: Optional[Index] = None
_WORKER_EPOCH: int = 0
_WORKER_DISK_PATH = None
_WORKER_CACHE_PAGES: int = 128


def _worker_init(index: Optional[Index], disk_path, cache_pages: int,
                 epoch: int = 0) -> None:
    """Pool initializer: adopt the fork-inherited in-memory tree, or open
    an independent read-only handle on the shared page file."""
    global _WORKER_INDEX, _WORKER_EPOCH, _WORKER_DISK_PATH, \
        _WORKER_CACHE_PAGES
    # An inherited tracing sink would interleave span writes from every
    # worker into the parent's file; workers instead capture spans into
    # a scratch tracer per traced task and ship them home (_worker_run).
    trace.disable()
    _WORKER_EPOCH = epoch
    _WORKER_DISK_PATH = disk_path
    _WORKER_CACHE_PAGES = cache_pages
    if disk_path is not None:
        _WORKER_INDEX = DiskCTree.open(
            disk_path, cache_pages=cache_pages, wal=False, auto_recover=False
        )
    else:
        _WORKER_INDEX = index


def _worker_sync_epoch(epoch: int) -> None:
    """Swap this worker's read-only disk handle when the parent has
    committed a newer index generation (task epoch ahead of ours).

    The stale handle is closed with header writes suppressed — a
    read-only worker must never clobber the writer's live header — and
    the index is reopened cold at the same path.  In-memory indexes
    have no path to reopen; they are refreshed by pool respawn instead.
    """
    global _WORKER_INDEX, _WORKER_EPOCH
    if epoch == _WORKER_EPOCH or _WORKER_DISK_PATH is None:
        return
    stale = _WORKER_INDEX
    if stale is not None:
        stale.pool.pagefile.defer_header = True
        stale.close()
    _WORKER_INDEX = DiskCTree.open(
        _WORKER_DISK_PATH, cache_pages=_WORKER_CACHE_PAGES,
        wal=False, auto_recover=False,
    )
    _WORKER_EPOCH = epoch
    global_registry().counter("engine.worker_reopens").inc()


def _execute(index: Index, kind: str, query: Graph, params: tuple):
    """Run one query against ``index`` — the exact same code path the
    serial API uses, so results are bit-identical by construction."""
    if kind == _KIND_SUBGRAPH:
        level, verify = params
        return subgraph_query(index, query, level=level, verify=verify)
    k, mapping_method = params
    return knn_query(index, query, k, mapping_method=mapping_method)


def _worker_run(task):
    """Execute one deduplicated query in a worker; returns the result
    plus the registry delta it caused, its busy time, and — when the
    parent shipped a trace context — the span records it produced.

    Tracing is disabled in workers (see :func:`_worker_init`), so for a
    traced batch the worker records into a scratch tracer
    (:func:`repro.obs.trace.capture`) under an ``engine.task`` root and
    ships the serialized records home with the result; the parent
    splices them into its own trace via
    :func:`~repro.obs.trace.fold_worker_records` — exactly how worker
    metrics ride home as registry deltas.
    """
    task_id, kind, query, params, ctx, epoch = task
    registry = global_registry()
    before = registry.snapshot()
    # After the snapshot, so a handle swap's counter rides the delta.
    _worker_sync_epoch(epoch)
    spans: list = []
    start = time.perf_counter()
    if ctx is not None:
        with trace.capture() as spans:
            with trace.span("engine.task", task_id=task_id, kind=kind,
                            pid=os.getpid()):
                answers, stats = _execute(_WORKER_INDEX, kind, query, params)
    else:
        answers, stats = _execute(_WORKER_INDEX, kind, query, params)
    busy = time.perf_counter() - start
    return (task_id, answers, stats, registry.diff(before), busy, spans)


@dataclass
class BatchReport:
    """What one ``query_many``/``knn_many`` call did (also folded into
    the ``engine.*`` metrics)."""

    kind: str
    queries: int
    #: structurally distinct queries after cache hits were removed
    dispatched: int
    cache_hits: int
    workers: int
    #: True when a worker pool executed the batch (False: in-process)
    parallel: bool
    wall_seconds: float
    #: summed per-query execution time across workers
    busy_seconds: float

    @property
    def throughput(self) -> float:
        """Queries answered per second of batch wall time."""
        return self.queries / self.wall_seconds if self.wall_seconds else 0.0

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of the batch answered from the LRU answer cache."""
        return self.cache_hits / self.queries if self.queries else 0.0

    @property
    def utilization(self) -> float:
        """Fraction of the pool's capacity spent executing queries."""
        capacity = self.workers * self.wall_seconds
        return self.busy_seconds / capacity if capacity else 0.0


class QueryEngine:
    """Batched subgraph/K-NN query execution over one read-only index.

    Parameters
    ----------
    index:
        A built :class:`~repro.ctree.tree.CTree` or an open
        :class:`~repro.ctree.diskindex.DiskCTree`.
    workers:
        Default pool size for batches (overridable per call).  ``1``
        executes in-process.
    cache_size:
        Maximum number of cached answers (LRU).  ``0`` disables both the
        answer cache and batch deduplication — every query executes.
    cache_pages:
        Buffer-pool capacity of each per-worker disk handle.
    cache:
        An injected answer-cache object (anything with the
        :mod:`repro.ctree.shardcache` interface — ``get``/``put``/
        ``clear``/``entries``/``enabled``).  Overrides ``cache_size``;
        pass a :class:`~repro.ctree.shardcache.SharedMemoryAnswerCache`
        to share answers across engine processes.  The default is the
        historical in-process :class:`~repro.ctree.shardcache.\
LRUAnswerCache` — behavior unchanged.
    shards:
        With ``shards > 1`` the engine re-partitions the index into S
        in-memory C-trees and delegates every batch to a
        :class:`~repro.ctree.shards.ShardedEngine` (one worker process
        per shard, scatter-gather merge).  Answers then follow the
        sharded canonical forms: subgraph answer lists sorted by graph
        id, K-NN in ``(-similarity, id)`` tie order.  ``workers`` is
        ignored on this path — fan-out is per shard.

    Use as a context manager, or call :meth:`close` to reap the pool.

    The worker pool is **long-lived**: it is spawned once (lazily on the
    first parallel batch, or eagerly via :meth:`start`) and reused by
    every subsequent batch, so steady-state serving pays no fork or
    copy-on-write cost per batch.  The HTTP serving layer
    (:mod:`repro.server`) calls :meth:`start` before accepting traffic
    and :meth:`refresh` after an index mutation.

    Examples
    --------
    Serve a batch and inspect what the engine did::

        from repro.ctree.bulkload import bulk_load
        from repro.ctree.parallel import QueryEngine

        tree = bulk_load(graphs, min_fanout=10)
        with QueryEngine(tree, workers=4).start() as engine:
            results = engine.query_many(queries)       # [(answers, stats)]
            report = engine.last_batch
            print(report.throughput, report.cache_hit_rate)
    """

    def __init__(
        self,
        index: Index,
        workers: int = 1,
        cache_size: int = 256,
        cache_pages: int = 128,
        cache=None,
        shards: int = 1,
    ) -> None:
        self._index = index
        self.workers = max(1, int(workers))
        self._cache_pages = cache_pages
        #: the answer cache — injected, or the historical in-process LRU
        self._cache = cache if cache is not None \
            else LRUAnswerCache(cache_size)
        self._sharded = None
        if shards > 1:
            # Lazy import: shards.py composes this module's BatchReport.
            from repro.ctree.shards import ShardSet, ShardedEngine

            self._sharded = ShardedEngine(
                ShardSet.from_index(index, shards),
                cache=self._cache, cache_pages=cache_pages,
            )
        self._pool = None
        self._pool_workers = 0
        #: bumped by refresh(); rides on every task so pre-forked disk
        #: workers know when to swap their read-only handle
        self._epoch = 0
        self._refresh_hooks: list = []
        self.last_batch: Optional[BatchReport] = None
        disk = isinstance(index, DiskCTree)
        self._fork_ok = (
            "fork" in multiprocessing.get_all_start_methods()
            and (not disk or index.path is not None)
        )

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def query_many(
        self,
        queries: Sequence[Graph],
        level=1,
        verify: bool = True,
        workers: Optional[int] = None,
    ) -> list[tuple[list[int], QueryStats]]:
        """Answer a batch of subgraph queries.

        Returns ``[(answers, stats), ...]`` in input order,
        bit-identical to the serial per-query loop at every worker
        count.  ``level`` and ``verify`` mean exactly what they mean on
        :func:`~repro.ctree.subgraph_query.subgraph_query`; ``workers``
        overrides the engine default for this batch only.

        Examples
        --------
        ::

            with QueryEngine(tree, workers=4) as engine:
                for answers, stats in engine.query_many(queries):
                    print(sorted(answers), stats.candidates)
            # identical to: [subgraph_query(tree, q) for q in queries]
        """
        if self._sharded is not None:
            results = self._sharded.query_many(queries, level=level,
                                               verify=verify)
            self.last_batch = self._sharded.last_batch
            return results
        return self._run_batch(
            _KIND_SUBGRAPH, queries, (level, verify), workers
        )

    def knn_many(
        self,
        queries: Sequence[Graph],
        k: int,
        mapping_method: str = "nbm",
        workers: Optional[int] = None,
    ) -> list[tuple[list[tuple[int, float]], KnnStats]]:
        """Answer a batch of K-NN queries (same guarantees as
        :meth:`query_many`).

        Returns ``[(results, stats), ...]`` in input order, where each
        ``results`` is the ``[(graph_id, similarity), ...]`` list that
        :func:`~repro.ctree.similarity_query.knn_query` returns.

        Examples
        --------
        ::

            with QueryEngine(tree) as engine:
                (neighbors, stats), = engine.knn_many([probe], k=5)
                best_id, best_sim = neighbors[0]
        """
        if self._sharded is not None:
            results = self._sharded.knn_many(queries, k,
                                             mapping_method=mapping_method)
            self.last_batch = self._sharded.last_batch
            return results
        return self._run_batch(_KIND_KNN, queries, (k, mapping_method),
                               workers)

    def start(self, workers: Optional[int] = None) -> "QueryEngine":
        """Eagerly spawn the long-lived worker pool; returns ``self``.

        Without this, the pool forks lazily on the first parallel batch
        — fine for scripts, but a serving process wants the fork (and
        its copy-on-write page sharing) to happen once at startup,
        before traffic and before the process grows threads.  Calling
        :meth:`start` when the pool already exists at the right size is
        a no-op.

        Examples
        --------
        ::

            engine = QueryEngine(tree, workers=4).start()  # forks now
            engine.query_many(batch)                       # no fork here
        """
        if self._sharded is not None:
            self._sharded.start()
            return self
        if workers is not None:
            self.workers = max(1, int(workers))
        if self.workers > 1 and self._fork_ok:
            self._ensure_pool(self.workers)
        return self

    def refresh(self) -> None:
        """Drop the answer cache and expose the mutated index to the
        workers — call after every index mutation.

        For a **disk index** the long-lived pool is kept: the engine
        bumps its index epoch, and each worker swaps its read-only
        handle the first time a task from the new epoch reaches it
        (``engine.worker_reopens`` counts the swaps).  An incremental
        append therefore becomes visible to pre-forked workers without
        a pool restart.  An **in-memory** tree is shared by fork-time
        copy-on-write, so its pool is respawned immediately (the new
        workers re-inherit the tree as it now exists) and the next
        query never pays the fork.  Hooks registered via
        :meth:`on_refresh` run last — the HTTP server uses this to
        invalidate anything it derived from the old index generation.
        """
        self._cache.clear()
        self._epoch += 1
        if isinstance(self._index, DiskCTree) and self._pool is not None:
            # Workers reopen lazily on the next task from this epoch.
            for hook in self._refresh_hooks:
                hook(self)
            return
        had_pool = self._pool_workers
        self._close_pool()
        if had_pool > 1:
            self._ensure_pool(had_pool)
        for hook in self._refresh_hooks:
            hook(self)

    def on_refresh(self, hook) -> None:
        """Register ``hook(engine)`` to run after every :meth:`refresh`."""
        self._refresh_hooks.append(hook)

    def close(self) -> None:
        """Reap the worker pool (idempotent)."""
        if self._sharded is not None:
            self._sharded.close()
        self._close_pool()

    def __enter__(self) -> "QueryEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Batch execution
    # ------------------------------------------------------------------
    def _run_batch(self, kind, queries, params, workers):
        queries = list(queries)
        n = len(queries)
        if n == 0:
            return []
        effective = self.workers if workers is None else max(1, int(workers))
        registry = global_registry()
        start = time.perf_counter()
        results: list = [None] * n
        hits = 0
        # Deduplicated execution plan: exact structural key -> (query,
        # positions).  Insertion order fixes the dispatch order, so the
        # plan is deterministic for a given batch at every worker count.
        pending: "OrderedDict[tuple, tuple]" = OrderedDict()
        with trace.span("engine.batch", kind=kind, queries=n,
                        workers=effective) as sp:
            for pos, query in enumerate(queries):
                cached = self._cache.get(kind, params, query)
                if cached is not None:
                    answers, stats = cached
                    results[pos] = (list(answers), stats.copy())
                    hits += 1
                    continue
                if self._cache.enabled:
                    key = (query.signature(), _structure_key(query))
                else:
                    key = pos  # dedup off: one task per position
                if key in pending:
                    pending[key][1].append(pos)
                else:
                    pending[key] = (query, [pos])

            # Exported under the engine.batch span: worker-side spans
            # re-parent here, keeping one coherent tree per request.
            ctx = trace.export_context()
            tasks = [
                (task_id, kind, query, params, ctx, self._epoch)
                for task_id, (query, _) in enumerate(pending.values())
            ]
            parallel = (effective > 1 and self._fork_ok and len(tasks) > 1)
            if parallel:
                executed, busy = self._run_pool(tasks, effective, registry)
            else:
                executed, busy = self._run_inline(tasks)

            for task_id, (query, positions) in enumerate(pending.values()):
                answers, stats = executed[task_id]
                self._cache.put(kind, params, query, answers, stats)
                for pos in positions:
                    results[pos] = (list(answers), stats.copy())

            wall = time.perf_counter() - start
            report = BatchReport(
                kind=kind, queries=n, dispatched=len(tasks),
                cache_hits=hits, workers=effective if parallel else 1,
                parallel=parallel, wall_seconds=wall, busy_seconds=busy,
            )
            self.last_batch = report
            self._publish_batch(registry, report)
            sp.set(dispatched=report.dispatched, cache_hits=hits,
                   wall_seconds=wall)
        return results

    def _run_inline(self, tasks):
        """Serial in-process execution (workers <= 1, no fork, or a
        single task)."""
        executed = {}
        busy = 0.0
        for task_id, kind, query, params, _ctx, _epoch in tasks:
            start = time.perf_counter()
            with trace.span("engine.task", task_id=task_id, kind=kind,
                            pid=os.getpid()):
                executed[task_id] = _execute(self._index, kind, query,
                                             params)
            busy += time.perf_counter() - start
        return executed, busy

    def _run_pool(self, tasks, workers, registry):
        """Fan tasks out to the persistent worker pool; merge each
        worker's metrics delta (and fold its shipped span records into
        the active trace) so totals and traces match a serial run."""
        pool = self._ensure_pool(workers)
        chunksize = max(1, len(tasks) // (workers * 4))
        depth = registry.gauge("engine.queue_depth")
        depth.set(len(tasks))
        ctx = tasks[0][4] if tasks else None
        executed = {}
        busy = 0.0
        try:
            for task_id, answers, stats, delta, task_busy, spans in \
                    pool.imap_unordered(_worker_run, tasks,
                                        chunksize=chunksize):
                executed[task_id] = (answers, stats)
                registry.merge(delta)
                trace.fold_worker_records(spans, ctx)
                busy += task_busy
                depth.dec()
        finally:
            depth.set(0)
        return executed, busy

    # ------------------------------------------------------------------
    # Worker pool lifecycle
    # ------------------------------------------------------------------
    def _ensure_pool(self, workers: int):
        if self._pool is not None and self._pool_workers == workers:
            return self._pool
        self._close_pool()
        ctx = multiprocessing.get_context("fork")
        if isinstance(self._index, DiskCTree):
            initargs = (None, os.fspath(self._index.path),
                        self._cache_pages, self._epoch)
        else:
            # Under fork, initargs are inherited by reference — the tree
            # (and its memoized kernel contexts) is never pickled.
            initargs = (self._index, None, self._cache_pages, self._epoch)
        self._pool = ctx.Pool(processes=workers, initializer=_worker_init,
                              initargs=initargs)
        self._pool_workers = workers
        return self._pool

    def _close_pool(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None
            self._pool_workers = 0

    @property
    def cache_entries(self) -> int:
        """Answers currently held by the answer cache (across buckets)."""
        return self._cache.entries

    # ------------------------------------------------------------------
    def _publish_batch(self, registry, report: BatchReport) -> None:
        registry.counter("engine.batches").inc()
        registry.counter("engine.queries").inc(report.queries)
        registry.counter("engine.cache_hits").inc(report.cache_hits)
        registry.counter("engine.cache_misses").inc(
            report.queries - report.cache_hits
        )
        registry.counter("engine.dispatched").inc(report.dispatched)
        registry.counter("engine.wall_seconds").inc(report.wall_seconds)
        registry.counter("engine.worker_busy_seconds").inc(
            report.busy_seconds
        )
        registry.gauge("engine.workers").set(report.workers)
        registry.gauge("engine.utilization").set(report.utilization)
        registry.gauge("engine.cache_hit_rate").set(report.cache_hit_rate)
        registry.histogram("engine.per_batch.wall_seconds").observe(
            report.wall_seconds
        )
        registry.histogram("engine.per_batch.queries").observe(
            report.queries
        )

    def __repr__(self) -> str:
        kind = "disk" if isinstance(self._index, DiskCTree) else "memory"
        return (f"<QueryEngine {kind} |D|={len(self._index)} "
                f"workers={self.workers} cached={self.cache_entries}>")
