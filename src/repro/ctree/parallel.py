"""The batched query engine: Alg. 3 / Alg. 4 in batches over S >= 1
partitions of a read-only C-tree index.

The paper optimizes one query at a time; the serving metric that
matters at scale is *batch throughput* over a shared immutable index.
:class:`QueryEngine` takes a :class:`~repro.ctree.tree.CTree`, a
:class:`~repro.ctree.diskindex.DiskCTree` or a
:class:`~repro.ctree.shards.ShardSet`, views all three as a list of
partitions (a plain index is one partition with no id translation) and
runs every batch through one pipeline:

1. **deduplicate** — structurally identical queries in one batch
   execute once and fan out to every position;
2. **probe the LRU answer cache**, keyed by the query graph itself
   (hashed by :meth:`Graph.signature()
   <repro.graphs.graph.Graph.signature>`, compared by exact structural
   equality, so an incomplete-invariant collision can never return a
   wrong answer);
3. **dispatch** every (task, partition) pair to that partition's
   long-lived fork pool.  An in-memory tree is inherited copy-on-write
   — memoized :class:`~repro.graphs.labelspace.TargetContext` caches
   included, so workers start warm; a page file is opened per worker
   as an independent read-only handle
   (:meth:`DiskCTree.open_read_only
   <repro.ctree.diskindex.DiskCTree.open_read_only>` — workers never
   write, not even the header on close);
4. **merge** each task's per-partition answers, **cache** the result,
   and fold the workers' registry deltas and span records home
   (:meth:`~repro.obs.metrics.MetricsRegistry.merge`,
   :func:`~repro.obs.trace.fold_worker_records`), so a parallel run
   reports the same process-wide totals and one coherent trace tree.

**Pool shape.**  One rule: a single partition gets one pool of
``workers`` processes; S > 1 partitions get one single-process pool
each (S queries' worth of descent, pseudo-iso filtering and similarity
scoring run with no shared state).  :attr:`QueryEngine.workers` is the
resulting process count.  A batch that deduplicates to one task on one
partition runs in-process, with one exception: a lone task of either
kind on one tree with W > 1 processes is **split**.  The engine thread
runs share 0 of the tree while the pool runs shares 1…W−1
(:func:`~repro.ctree.tree.tree_share`).  A subgraph task's shares run
Alg. 3 whole — search and verification — and their answers merge
sorted by id; a K-NN task's shares score, then Alg. 4 runs once
in-process over the merged similarities and Eqn. (7) bounds.  Every
batch runs in-process when ``fork`` is unavailable; answers are
identical either way.

**Determinism.**  One contract on every path: subgraph answers are
**sorted by graph id** and K-NN answers are in ``(-similarity,
graph_id)`` order — a function of the database and the query alone,
equal to the serial :func:`~repro.ctree.subgraph_query.subgraph_query` /
:func:`~repro.ctree.similarity_query.knn_query` over the whole
database, in input order, at every worker count, over a plain index or
a shard set of any S (a shard set translates local ids to global ones;
:func:`~repro.ctree.shards.merge_knn` carries the K-NN argument).  Over
a plain index the per-query stats are logically identical to the
serial run's too (:meth:`QueryStats.deterministic_dict
<repro.ctree.stats.QueryStats.deterministic_dict>`); only wall-clock
timings and page-I/O temperatures vary with the schedule.  A split task
is no exception.  A subgraph share counts only what it owns, so the
shares' answers sorted and their stats summed, published once, are the
serial run's.  Alg. 4's control flow reads only bounds and
similarities, and an NBM similarity is a function of the two labelled
graphs, so the K-NN replay over the shares' memos is the serial run,
counter for counter (a graph no share scored is scored by the replay,
``engine.knn_replay_misses``).

**Read-only contract.**  Workers fork (or open) the index as it
exists at pool creation.  Call :meth:`QueryEngine.refresh` after a
mutation: it drops the answer cache and respawns any live pools, so
their workers re-inherit the trees or reopen the page files as they
now are — the same for memory and disk.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from collections import OrderedDict
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from repro.graphs.graph import Graph
from repro.obs import trace
from repro.obs.metrics import global_registry
from repro.ctree.diskindex import DEFAULT_CACHE_PAGES, DiskCTree
from repro.ctree.shardcache import LRUAnswerCache
from repro.ctree.shards import ShardSet, merge_knn, merge_subgraph
from repro.ctree.similarity_query import knn_query, knn_share
from repro.ctree.stats import KnnStats, QueryStats
from repro.ctree.subgraph_query import subgraph_query, subgraph_share
from repro.ctree.tree import CTree, tree_share

__all__ = ["BatchReport", "DEFAULT_CACHE_SIZE", "QueryEngine"]

Index = Union[CTree, DiskCTree]

#: Answers the LRU cache holds unless the caller says otherwise — the
#: one default behind ``--cache-size`` and ``ServerConfig.cache_size``.
DEFAULT_CACHE_SIZE = 256

_KIND_SUBGRAPH = "subgraph"
_KIND_KNN = "knn"
#: task kind -> the kind of one tree share of it split across the pool
#: (params: the task's, then share, shares)
_SHARE_KINDS = {_KIND_SUBGRAPH: "subgraph_share", _KIND_KNN: "knn_share"}

#: worker-process globals: the partition handle queries run against and
#: its shard id (None over a plain index)
_WORKER_INDEX: Optional[Index] = None
_WORKER_SHARD: Optional[int] = None


def _worker_init(shard: Optional[int], tree: Optional[CTree], disk_path,
                 cache_pages: int) -> None:
    """Pool initializer: adopt the fork-inherited in-memory tree, or open
    an independent read-only handle on the partition's page file."""
    global _WORKER_INDEX, _WORKER_SHARD
    # An inherited tracing sink would interleave span writes from every
    # worker into the parent's file; workers instead capture spans into
    # a scratch tracer per traced task and ship them home (_worker_run).
    trace.disable()
    _WORKER_SHARD = shard
    _WORKER_INDEX = (tree if disk_path is None
                     else DiskCTree.open_read_only(disk_path, cache_pages))


def _execute(index: Index, shard: Optional[int], task, memo=(None, None)):
    """Run one task against one partition — the exact code path the
    serial API uses, so results are bit-identical by construction.
    Returns ``(answers, stats, busy_seconds)``; a share of a split task
    returns what its ``*_share`` function does (for K-NN, the ``(sims,
    bounds)`` memos and no stats), and ``memo`` is the pair a K-NN
    replay reads."""
    task_id, kind, query, params, _ctx = task
    attrs = {} if shard is None else {"shard": shard}
    if kind in _SHARE_KINDS.values():
        attrs["share"] = params[-2]
    start = time.perf_counter()
    with trace.span("engine.task", task_id=task_id, kind=kind,
                    pid=os.getpid(), **attrs):
        stats = None
        if kind == _KIND_SUBGRAPH:
            level, verify = params
            answers, stats = subgraph_query(index, query, level=level,
                                            verify=verify)
        elif kind == _KIND_KNN:
            k, = params
            answers, stats = knn_query(index, query, k, sims=memo[0],
                                       bounds=memo[1])
        elif kind == _SHARE_KINDS[_KIND_SUBGRAPH]:
            answers, stats = subgraph_share(index, query, *params)
        else:
            answers = knn_share(index, query, *params)
    return answers, stats, time.perf_counter() - start


def _worker_run(task):
    """Execute one task in a pool worker; returns :func:`_execute`'s
    result plus the registry delta it caused and — when the parent
    shipped a trace context — the span records it produced.

    Tracing is disabled in workers (see :func:`_worker_init`), so for a
    traced batch the worker records into a scratch tracer
    (:func:`repro.obs.trace.capture`) and ships the serialized records
    home with the result; the parent splices them into its own trace
    via :func:`~repro.obs.trace.fold_worker_records` — exactly how
    worker metrics ride home as registry deltas.
    """
    ctx = task[-1]
    registry = global_registry()
    before = registry.snapshot()
    with trace.capture() if ctx is not None else nullcontext([]) as spans:
        result = _execute(_WORKER_INDEX, _WORKER_SHARD, task)
    # Workers set no gauge: their fork-time copies must not overwrite
    # the parent's live ones (server.inflight, engine.queue_depth).
    delta = {name: snap for name, snap in registry.diff(before).items()
             if snap["type"] != "gauge"}
    return (*result, delta, spans)


def _merge_stats(per_shard: list, total_size: int):
    """Fold per-shard stats objects into one (counters summed;
    ``database_size`` is the whole database, not the max shard)."""
    merged = per_shard[0].copy()
    for stats in per_shard[1:]:
        merged.merge(stats)
    merged.database_size = total_size
    return merged


@dataclass
class BatchReport:
    """What one ``query_many``/``knn_many`` call did (also folded into
    the ``engine.*`` metrics)."""

    kind: str
    queries: int
    #: structurally distinct queries after cache hits were removed
    dispatched: int
    cache_hits: int
    #: processes that executed the batch (1: in-process)
    workers: int
    #: True when the worker pools executed the batch (False: in-process)
    parallel: bool
    wall_seconds: float
    #: summed per-task execution time across workers and partitions
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
        """Fraction of the pools' capacity spent executing queries."""
        capacity = self.workers * self.wall_seconds
        return self.busy_seconds / capacity if capacity else 0.0


class QueryEngine:
    """Batched subgraph/K-NN query execution over one read-only index.

    Parameters
    ----------
    index:
        A built :class:`~repro.ctree.tree.CTree`, an open
        :class:`~repro.ctree.diskindex.DiskCTree`, or a
        :class:`~repro.ctree.shards.ShardSet`; all answer in the one
        form of the module docstring.
    workers:
        Processes in the pool of a single-partition index; ``1``
        executes in-process.  A batch of one query, subgraph or K-NN,
        uses all of them, the engine thread included (the split of the
        module docstring).  Unused over S > 1 shards, which get one
        process each — :attr:`workers` reports the real count.
    cache_size:
        Maximum number of cached answers (LRU).  ``0`` disables both the
        answer cache and batch deduplication — every query executes.
    cache_pages:
        Buffer-pool capacity — and resident-node cap — of every disk
        handle the engine opens (per-worker handles, and in-process
        handles on disk shards).

    Use as a context manager, or call :meth:`close` to reap the pools.

    The worker pools are **long-lived**: spawned once (lazily on the
    first parallel batch, or eagerly via :meth:`start`) and reused by
    every subsequent batch, so steady-state serving pays no fork or
    copy-on-write cost per batch.  The HTTP serving layer
    (:mod:`repro.server`) calls :meth:`start` before accepting traffic;
    a process that mutates the index calls :meth:`refresh` after.

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

    The same engine over a shard directory (one process per shard)::

        ShardSet.create(graphs, "idx.shards", shards=4)
        with QueryEngine(ShardSet.open("idx.shards")) as engine:
            results = engine.query_many(queries)   # as one tree would
    """

    def __init__(
        self,
        index: Union[Index, ShardSet],
        workers: int = 1,
        cache_size: int = DEFAULT_CACHE_SIZE,
        cache_pages: int = DEFAULT_CACHE_PAGES,
    ) -> None:
        self._index = index
        self._cache_pages = cache_pages
        self._cache = LRUAnswerCache(cache_size)
        #: probe() may run on another thread than batches and refresh()
        self._cache_lock = threading.Lock()
        #: per partition: (shard id | None, fork-inherited tree | None,
        #: page-file path | None)
        if isinstance(index, ShardSet):
            self._shardset: Optional[ShardSet] = index
            self._disk = index.is_disk
            self._parts = [(s, shard.tree, shard.path)
                           for s, shard in enumerate(index.shards)]
            #: in-process handles, opened on first inline use
            self._local: Optional[list] = None
        else:
            self._shardset = None
            self._disk = isinstance(index, DiskCTree)
            self._parts = [(None, None, index.path) if self._disk
                           else (None, index, None)]
            self._local = [index]
        # The pool-shape rule, stated once.
        self._pool_procs = max(1, int(workers)) if len(self._parts) == 1 else 1
        self._pools: Optional[list] = None
        self.last_batch: Optional[BatchReport] = None
        self._fork_ok = (
            "fork" in multiprocessing.get_all_start_methods()
            and all(tree is not None or path is not None
                    for _, tree, path in self._parts)
        )

    @property
    def workers(self) -> int:
        """Processes that execute a parallel batch: ``workers`` over one
        partition, one per shard over a shard set, 1 without ``fork``."""
        return self._pool_procs * len(self._parts) if self._fork_ok else 1

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def query_many(
        self,
        queries: Sequence[Graph],
        level=1,
        verify: bool = True,
    ) -> list[tuple[list[int], QueryStats]]:
        """Answer a batch of subgraph queries.

        Returns ``[(answers, stats), ...]`` in input order, each
        ``answers`` the serial per-query loop's sorted ids, at every
        worker count and every shard count (in global ids over a shard
        set).  ``level`` and ``verify`` mean exactly what they mean on
        :func:`~repro.ctree.subgraph_query.subgraph_query`.

        Examples
        --------
        ::

            with QueryEngine(tree, workers=4) as engine:
                for answers, stats in engine.query_many(queries):
                    print(answers, stats.candidates)
            # identical to: [subgraph_query(tree, q) for q in queries]
        """
        return self._run_batch(_KIND_SUBGRAPH, queries, (level, verify))

    def knn_many(
        self,
        queries: Sequence[Graph],
        k: int,
    ) -> list[tuple[list[tuple[int, float]], KnnStats]]:
        """Answer a batch of K-NN queries (same guarantees as
        :meth:`query_many`).

        Returns ``[(results, stats), ...]`` in input order, where each
        ``results`` is the ``[(graph_id, similarity), ...]`` list that
        :func:`~repro.ctree.similarity_query.knn_query` over the whole
        database returns, in ``(-similarity, graph_id)`` order — over a
        shard set too, in global ids.

        Examples
        --------
        ::

            with QueryEngine(tree) as engine:
                (neighbors, stats), = engine.knn_many([probe], k=5)
                best_id, best_sim = neighbors[0]
        """
        return self._run_batch(_KIND_KNN, queries, (k,))

    def probe(self, kind: str, params: tuple, query: Graph):
        """The cached ``(answers, stats)`` a batch would return for one
        query — ``("subgraph", (level, verify))`` or ``("knn", (k,))`` —
        or ``None``.  A hit counts in
        ``engine.queries`` / ``engine.cache_hits``; a miss counts
        nothing, the batch that executes it will.  Unlike the batch
        calls, safe from a second thread: the HTTP server probes on its
        event loop while batches run on the engine thread."""
        cached = self._cached(kind, params, query)
        if cached is not None:
            registry = global_registry()
            registry.counter("engine.queries").inc()
            registry.counter("engine.cache_hits").inc()
        return cached

    def start(self) -> "QueryEngine":
        """Eagerly spawn the long-lived worker pools; returns ``self``.

        Without this, the pools fork lazily on the first parallel batch
        — fine for scripts, but a serving process wants the fork (and
        its copy-on-write page sharing) to happen once at startup,
        before traffic and before the process grows threads.  A no-op
        when the pools already exist or the engine runs in-process.

        Examples
        --------
        ::

            engine = QueryEngine(tree, workers=4).start()  # forks now
            engine.query_many(batch)                       # no fork here
        """
        if self.workers > 1:
            self._ensure_pools()
        return self

    def refresh(self) -> None:
        """Drop the answer cache and expose the mutated index to the
        workers — call after every index mutation.

        Closes the in-process handles the engine opened (they reopen on
        demand) and respawns any live pools immediately, so the next
        query never pays the fork: the new workers re-inherit the
        in-memory trees, or reopen the page files, as they now are.
        """
        with self._cache_lock:
            self._cache.clear()
        self._close_local()
        if self._pools is not None:
            self._close_pools()
            self._ensure_pools()

    def close(self) -> None:
        """Reap the worker pools and the in-process handles the engine
        opened (idempotent)."""
        self._close_pools()
        self._close_local()

    def __enter__(self) -> "QueryEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Batch execution
    # ------------------------------------------------------------------
    def _run_batch(self, kind, queries, params):
        queries = list(queries)
        n = len(queries)
        if n == 0:
            return []
        registry = global_registry()
        start = time.perf_counter()
        results: list = [None] * n
        hits = 0
        # Deduplicated execution plan: query (keyed as the cache keys
        # it) -> (query, positions).  Insertion order fixes the dispatch
        # order, so the plan is deterministic for a given batch at every
        # worker count.
        pending: "OrderedDict" = OrderedDict()
        with trace.span("engine.batch", kind=kind, queries=n,
                        workers=self.workers) as sp:
            for pos, query in enumerate(queries):
                cached = self._cached(kind, params, query)
                if cached is not None:
                    results[pos] = cached
                    hits += 1
                    continue
                # Dedup off: one task per position.
                key = query if self._cache.enabled else pos
                if key in pending:
                    pending[key][1].append(pos)
                else:
                    pending[key] = (query, [pos])

            # Exported under the engine.batch span: worker-side spans
            # re-parent here, keeping one coherent tree per request.
            ctx = trace.export_context()
            tasks = [
                (task_id, kind, query, params, ctx)
                for task_id, (query, _) in enumerate(pending.values())
            ]
            # One task on one partition is not worth a pool round trip,
            # unless it is a K-NN task the pool can split; an all-hits
            # batch forks nothing.
            parallel = (self.workers > 1
                        and len(tasks) * len(self._parts) > 1)
            if parallel:
                executed = self._run_pools(tasks, registry)
            elif self._splits(kind, tasks, params):
                parallel = True
                executed = self._run_split(tasks[0], registry)
            else:
                executed = self._run_inline(tasks)

            busy = 0.0
            for per_part, (query, positions) in zip(executed,
                                                    pending.values()):
                busy += sum(task_busy for _, _, task_busy in per_part)
                answers, stats = self._merge(kind, params, per_part,
                                             registry)
                with self._cache_lock:
                    self._cache.put(kind, params, query, answers, stats)
                for pos in positions:
                    results[pos] = (list(answers), stats.copy())

            wall = time.perf_counter() - start
            report = BatchReport(
                kind=kind, queries=n, dispatched=len(tasks),
                cache_hits=hits, workers=self.workers if parallel else 1,
                parallel=parallel, wall_seconds=wall, busy_seconds=busy,
            )
            self.last_batch = report
            self._publish_batch(registry, report)
            sp.set(dispatched=report.dispatched, cache_hits=hits,
                   wall_seconds=wall)
        return results

    def _cached(self, kind, params, query):
        """Fresh copies of the cached ``(answers, stats)`` for one
        query, or ``None`` — the one cache read of :meth:`probe` and
        :meth:`_run_batch`."""
        with self._cache_lock:
            cached = self._cache.get(kind, params, query)
        if cached is None:
            return None
        answers, stats = cached
        return list(answers), stats.copy()

    def _run_inline(self, tasks):
        """Serial in-process execution (one process, no fork, or a
        single task on a single partition): per task, one
        :func:`_execute` result per partition."""
        if self._local is None:
            self._local = self._shardset.open_local(self._cache_pages)
        return [
            [_execute(handle, shard, task)
             for (shard, _, _), handle in zip(self._parts, self._local)]
            for task in tasks
        ]

    def _run_pools(self, tasks, registry):
        """Stream every task through every partition's pool and gather
        in (task, partition) order; merge each worker's metrics delta
        (and fold its shipped span records into the active trace) so
        totals and traces match a serial run."""
        pools = self._ensure_pools()
        # The whole batch is submitted up front, so every pool stays
        # busy across the batch, not just within one query.
        chunksize = max(1, len(tasks) // (self._pool_procs * 4))
        streams = [pool.imap(_worker_run, tasks, chunksize)
                   for pool in pools]
        depth = registry.gauge("engine.queue_depth")
        depth.set(len(tasks) * len(pools))
        ctx = tasks[0][4]
        executed = []
        try:
            for _ in tasks:
                per_part = []
                for stream in streams:
                    answers, stats, task_busy, delta, spans = next(stream)
                    registry.merge(delta)
                    trace.fold_worker_records(spans, ctx)
                    depth.dec()
                    per_part.append((answers, stats, task_busy))
                executed.append(per_part)
        finally:
            depth.set(0)
        return executed

    def _splits(self, kind, tasks, params) -> bool:
        """Whether the batch is one task on one plain tree that
        :meth:`_run_split` spreads over the pool: a tree level at least
        twice as wide as the pool, and ``k > 0`` for a K-NN task."""
        return (self.workers > 1 and len(tasks) == 1
                and self._shardset is None
                and (kind == _KIND_SUBGRAPH or params[0] > 0)
                and tree_share(self._index.store, 0, self._pool_procs)
                is not None)

    def _run_split(self, task, registry):
        """One task over the whole pool: the pool runs shares 1..W-1 of
        the tree while this thread runs share 0.  Alg. 3 couples no
        subtrees, so the subgraph shares' answers merge sorted and their
        stats sum, published once; Alg. 4 couples them
        through the kth-best, so it runs once more in-process over the
        K-NN shares' merged similarities and bounds.  Either way the
        serial answer and stats, counter for counter.  Returns the
        task's result in :meth:`_run_inline`'s shape."""
        task_id, kind, query, params, ctx = task
        shares = self._pool_procs
        share_tasks = [(task_id, _SHARE_KINDS[kind], query,
                        (*params, share, shares), ctx)
                       for share in range(shares)]
        # The pool's task-handler thread needs the GIL to send the
        # shares; wait until it has, or share 0 would hold the GIL for a
        # switch interval (5 ms) before any worker starts.
        sent = threading.Event()

        def dispatch():
            yield from share_tasks[1:]
            sent.set()

        pending = self._ensure_pools()[0].imap(_worker_run, dispatch())
        sent.wait()
        index = self._local[0]
        parts = [_execute(index, None, share_tasks[0])]
        for *part, delta, spans in pending:
            registry.merge(delta)
            trace.fold_worker_records(spans, ctx)
            parts.append(part)
        busy = sum(task_busy for _, _, task_busy in parts)
        if kind == _KIND_SUBGRAPH:
            answers = sorted(graph_id for ids, _, _ in parts
                             for graph_id in ids)
            stats = _merge_stats([stats for _, stats, _ in parts],
                                 len(index))
            stats.publish()
            return [[(answers, stats, busy)]]
        sims, bounds = {}, {}
        for (part_sims, part_bounds), _, _ in parts:
            sims.update(part_sims)
            bounds.update(part_bounds)
        pairs = len(sims)
        answers, stats, replay_busy = _execute(index, None, task,
                                               (sims, bounds))
        registry.counter("engine.knn_split_pairs").inc(pairs)
        registry.counter("engine.knn_replay_misses").inc(len(sims) - pairs)
        return [[(answers, stats, busy + replay_busy)]]

    def _merge(self, kind, params, per_part, registry):
        """One task's answer: the lone partition's result as is, or the
        shards' results merged in global ids."""
        if self._shardset is None:
            answers, stats, _ = per_part[0]
            return answers, stats
        for s, (_, stats, task_busy) in enumerate(per_part):
            prefix = f"shard.s{s}"
            registry.counter(f"{prefix}.tasks").inc()
            registry.counter(f"{prefix}.busy_seconds").inc(task_busy)
            # "Candidate work": graphs this shard actually scored (K-NN)
            # or verified (subgraph) — how evenly placement split the load.
            registry.counter(f"{prefix}.candidate_work").inc(
                stats.graphs_scored if kind == _KIND_KNN
                else stats.candidates
            )
        per_shard = [answers for answers, _, _ in per_part]
        if kind == _KIND_SUBGRAPH:
            answers = merge_subgraph(per_shard, self._shardset)
        else:
            answers = merge_knn(per_shard, self._shardset, params[0])
        return answers, _merge_stats([stats for _, stats, _ in per_part],
                                     len(self._shardset))

    # ------------------------------------------------------------------
    # Worker pool and local handle lifecycle
    # ------------------------------------------------------------------
    def _ensure_pools(self):
        if self._pools is None:
            ctx = multiprocessing.get_context("fork")
            # Under fork, initargs are inherited by reference — a tree
            # (and its memoized kernel contexts) is never pickled.
            self._pools = [
                ctx.Pool(processes=self._pool_procs,
                         initializer=_worker_init,
                         initargs=(shard, tree, path, self._cache_pages))
                for shard, tree, path in self._parts
            ]
        return self._pools

    def _close_pools(self) -> None:
        if self._pools is not None:
            for pool in self._pools:
                pool.close()
            for pool in self._pools:
                pool.join()
            self._pools = None

    def _close_local(self) -> None:
        """Close the handles ``_run_inline`` opened on disk shards (they
        reopen on demand); a caller's own index is never closed."""
        if self._shardset is not None and self._local is not None:
            self._shardset.close_local(self._local)
            self._local = None

    @property
    def cache_entries(self) -> int:
        """Answers currently held by the answer cache."""
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
        if self._shardset is not None:
            registry.gauge("shard.count").set(len(self._parts))

    def __repr__(self) -> str:
        backend = "disk" if self._disk else "memory"
        return (f"<QueryEngine {backend} |D|={len(self._index)} "
                f"partitions={len(self._parts)} workers={self.workers} "
                f"cached={self.cache_entries}>")
