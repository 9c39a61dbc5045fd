"""Sharded scatter-gather query engine: S independent C-trees, one
long-lived worker process per shard, one coordinator.

:class:`~repro.ctree.parallel.QueryEngine` (PR 5) parallelizes *within*
a batch over one tree; its speedup is capped by the single index every
worker shares.  This module partitions the database itself into **S
independent C-trees** — hash placement or closure-clustering placement
(:func:`place_graphs`) — so S queries' worth of tree descent, pseudo-iso
filtering and similarity scoring run concurrently with no shared state
at all (the multicore partitioned-closure-evaluation recipe of the
recursive-query literature, applied to the paper's index):

- :class:`ShardSet` builds, persists, and reopens the partition: per-
  shard trees (in-memory :class:`~repro.ctree.tree.CTree` or on-disk
  :class:`~repro.ctree.diskindex.DiskCTree` page files) plus a JSON
  **placement manifest** mapping every global graph id to exactly one
  shard (:func:`fsck_shards` verifies this);
- :class:`ShardedEngine` scatters each subgraph/K-NN query to every
  shard, merges the per-shard answers, and preserves the repo's
  **bit-identical-answers determinism contract** at every S
  (see `Determinism`_ below); a shard is owned by a dedicated
  fork-spawned worker process holding its own read-only index handle
  (COW-inherited tree, or an independently-opened ``DiskCTree``);
- in front of the shards sits an **answer cache**
  (:mod:`repro.ctree.shardcache`): the in-process LRU by default, or the
  cross-process :class:`~repro.ctree.shardcache.SharedMemoryAnswerCache`
  so every engine process on the host shares one answer slab and a hot
  query touches no shard at all.

.. _Determinism:

**Determinism.**  Subgraph answers are returned **sorted by global
graph id** — the canonical form of an unordered answer set; the gate
compares against ``sorted()`` of the single-tree serial loop.  K-NN
runs every shard in *canonical* mode (``knn_query(..., canonical=True)``):
ties at the kth-best similarity are resolved by the total order
``(-similarity, graph_id)`` instead of traversal order, per-shard
top-k lists are exact under that order, and the merged global top-k is
therefore the canonical top-k of the whole database — the same list
``linear_scan_knn``-style canonical evaluation of one tree yields, at
every S and under any scatter schedule.  (If x is in the global
canonical top-k, fewer than k graphs precede it globally, hence fewer
than k in its own shard: x is in its shard's top-k.  The union of
per-shard top-k thus contains the global top-k.)

**K-NN bound pushdown.**  With ``pushdown=True`` the coordinator visits
shards in waves and forwards the running global kth-best similarity as
the ``bound`` of every later shard query, so those shards prune whole
subtrees against it before a single similarity is computed.  Answers
are unchanged (the bound only discards graphs strictly below an
already-achieved kth-best; boundary ties survive); only the work
shrinks — ``shard.pushdown.pruned`` counts the difference.  The
default (``pushdown=False``) scatters to all shards concurrently for
minimum latency; pushdown trades parallelism for total work, which
pays off when S is large or shards are remote.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from repro.exceptions import ConfigError, ReproError
from repro.graphs.graph import Graph
from repro.matching.edit_distance import MAPPING_METHODS
from repro.obs import trace
from repro.obs.metrics import global_registry
from repro.ctree.bulkload import bulk_load
from repro.ctree.diskindex import DiskCTree, FsckReport
from repro.ctree.parallel import BatchReport
from repro.ctree.shardcache import LRUAnswerCache, structure_key
from repro.ctree.similarity_query import knn_query
from repro.ctree.stats import KnnStats, QueryStats
from repro.ctree.subgraph_query import subgraph_query
from repro.ctree.tree import CTree

__all__ = [
    "MANIFEST_NAME",
    "PLACEMENTS",
    "Shard",
    "ShardSet",
    "ShardSetReport",
    "ShardedEngine",
    "fsck_shards",
    "place_graphs",
]

MANIFEST_NAME = "manifest.json"
_MANIFEST_SCHEMA = "ctree-shards-v1"
#: recognized placement strategies (see :func:`place_graphs`)
PLACEMENTS = ("hash", "closure")

_KIND_SUBGRAPH = "subgraph"
_KIND_KNN = "knn"


# ----------------------------------------------------------------------
# Placement
# ----------------------------------------------------------------------
def _place_hash(n: int, shards: int) -> list[list[int]]:
    """Round-robin by id: graph ``g`` lands on shard ``g % shards``.

    Placement-oblivious baseline: perfectly balanced in *count*, blind
    to structure, so similar graphs spread across shards and every
    query pays full fan-out.
    """
    out: list[list[int]] = [[] for _ in range(shards)]
    for gid in range(n):
        out[gid % shards].append(gid)
    return out


def _place_closure(
    graphs: Sequence[Graph],
    shards: int,
    mapping_method: str,
) -> list[list[int]]:
    """Greedy closure-clustering placement.

    Farthest-point selection picks ``shards`` medoid graphs (the same
    pivot idea as
    :func:`~repro.ctree.policies.partition_closures_linear`, and the
    same distance primitive: ``mapper(a, b).edit_cost()``).  Every
    graph then goes to the nearest medoid's shard, in ascending-id
    order, under a capacity cap of ``ceil(n / shards)`` so no shard can
    absorb the whole database — capped shards overflow to the next-
    nearest medoid.  Similar graphs cluster on the same shard, whose
    C-tree then builds tighter closures: the per-shard candidate work
    a query induces stays near ``1/S`` of the single-tree work (the
    bench's balance gate).
    """
    def distance(a: Graph, b: Graph) -> float:
        return mapper(a, b).edit_cost()

    mapper = MAPPING_METHODS[mapping_method]
    n = len(graphs)
    # Farthest-point medoids: start from graph 0, repeatedly take the
    # graph farthest from every medoid chosen so far (min-distance
    # maximization; ties to the lowest id keep placement deterministic).
    medoids = [0]
    min_dist = [distance(g, graphs[0]) for g in graphs]
    while len(medoids) < shards:
        far = max(range(n), key=lambda i: (min_dist[i], -i))
        medoids.append(far)
        for i, g in enumerate(graphs):
            d = distance(g, graphs[far])
            if d < min_dist[i]:
                min_dist[i] = d

    capacity = math.ceil(n / shards)
    out: list[list[int]] = [[] for _ in range(shards)]
    for gid in range(n):
        ranked = sorted(
            range(shards),
            key=lambda s: (distance(graphs[gid], graphs[medoids[s]]), s),
        )
        for s in ranked:
            if len(out[s]) < capacity:
                out[s].append(gid)
                break
    return out


def place_graphs(
    graphs: Sequence[Graph],
    shards: int,
    placement: str = "closure",
    mapping_method: str = "nbm",
) -> list[list[int]]:
    """Partition ``graphs`` into ``shards`` ascending-id lists.

    ``placement`` is ``"hash"`` (round-robin by id) or ``"closure"``
    (greedy medoid clustering by closure distance, capacity-capped).
    Every id appears in exactly one list; lists are ascending, which
    makes each shard's local ids (assigned 0..m-1 in input order by
    :func:`~repro.ctree.bulkload.bulk_load`) order-isomorphic to its
    global ids — the property the canonical K-NN merge relies on.
    """
    if shards < 1:
        raise ConfigError(f"need >= 1 shard, got {shards}")
    if placement not in PLACEMENTS:
        raise ConfigError(
            f"unknown placement {placement!r}; expected one of {PLACEMENTS}"
        )
    n = len(graphs)
    if shards > max(1, n):
        raise ConfigError(
            f"cannot spread {n} graphs over {shards} shards"
        )
    if placement == "hash" or shards == 1:
        return _place_hash(n, shards)
    return _place_closure(graphs, shards, mapping_method)


# ----------------------------------------------------------------------
# Shard sets
# ----------------------------------------------------------------------
@dataclass
class Shard:
    """One partition: its global graph ids (ascending — index = local
    id) and its index, either in memory (``tree``) or on disk
    (``path``)."""

    gids: list[int]
    tree: Optional[CTree] = None
    path: Optional[str] = None

    def __len__(self) -> int:
        return len(self.gids)


class ShardSet:
    """S independent C-trees plus the placement manifest that maps
    every global graph id to exactly one of them.

    Build one with :meth:`build_memory` (per-shard in-memory trees, for
    one-process engines and the ``shards=S`` delegation path of
    :class:`~repro.ctree.parallel.QueryEngine`), :meth:`create` (a
    directory of per-shard ``.ctp`` page files plus ``manifest.json`` —
    the persistent form ``repro shard --create`` writes), or
    :meth:`open` (reattach to such a directory).

    A ``ShardSet`` is accepted anywhere the serving stack accepts an
    index: :class:`ShardedEngine` queries it,
    :class:`repro.server.QueryServer` serves it, and
    :func:`fsck_shards` verifies it.
    """

    def __init__(self, shards: list[Shard], placement: str,
                 mapping_method: str = "nbm",
                 directory: Optional[str] = None) -> None:
        if not shards:
            raise ConfigError("a ShardSet needs at least one shard")
        self.shards = shards
        self.placement = placement
        self.mapping_method = mapping_method
        self.directory = directory
        seen: set[int] = set()
        for shard in shards:
            for gid in shard.gids:
                if gid in seen:
                    raise ConfigError(
                        f"graph id {gid} placed on more than one shard"
                    )
                seen.add(gid)

    # -- construction --------------------------------------------------
    @classmethod
    def build_memory(
        cls,
        graphs: Sequence[Graph],
        shards: int,
        placement: str = "closure",
        min_fanout: int = 20,
        mapping_method: str = "nbm",
    ) -> "ShardSet":
        """Partition ``graphs`` and bulk-load one in-memory C-tree per
        shard."""
        gid_lists = place_graphs(graphs, shards, placement, mapping_method)
        built = [
            Shard(
                gids=list(gids),
                tree=bulk_load([graphs[g] for g in gids],
                               min_fanout=min_fanout,
                               mapping_method=mapping_method),
            )
            for gids in gid_lists
        ]
        return cls(built, placement, mapping_method)

    @classmethod
    def create(
        cls,
        graphs: Sequence[Graph],
        directory: Union[str, os.PathLike],
        shards: int,
        placement: str = "closure",
        min_fanout: int = 20,
        mapping_method: str = "nbm",
        page_size: int = 4096,
    ) -> "ShardSet":
        """Partition ``graphs`` into a shard directory: one ``.ctp``
        page file per shard plus ``manifest.json``.

        The per-shard page files are ordinary
        :class:`~repro.ctree.diskindex.DiskCTree` indexes (WAL'd,
        fsck-able, recoverable individually); the manifest records the
        placement so :meth:`open` and :func:`fsck_shards` can map local
        ids back to global ones.
        """
        directory = os.fspath(directory)
        os.makedirs(directory, exist_ok=True)
        gid_lists = place_graphs(graphs, shards, placement, mapping_method)
        entries = []
        built: list[Shard] = []
        for s, gids in enumerate(gid_lists):
            filename = f"shard-{s:03d}.ctp"
            tree = bulk_load([graphs[g] for g in gids],
                             min_fanout=min_fanout,
                             mapping_method=mapping_method)
            path = os.path.join(directory, filename)
            DiskCTree.create(tree, path, page_size=page_size).close()
            entries.append({"file": filename, "graphs": list(gids)})
            built.append(Shard(gids=list(gids), path=path))
        manifest = {
            "schema": _MANIFEST_SCHEMA,
            "placement": placement,
            "mapping_method": mapping_method,
            "min_fanout": min_fanout,
            "total_graphs": len(graphs),
            "shards": entries,
        }
        with open(os.path.join(directory, MANIFEST_NAME), "w",
                  encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=1)
        return cls(built, placement, mapping_method, directory=directory)

    @classmethod
    def open(cls, directory: Union[str, os.PathLike]) -> "ShardSet":
        """Reattach to a shard directory written by :meth:`create`."""
        directory = os.fspath(directory)
        manifest = cls._read_manifest(directory)
        built = [
            Shard(gids=list(entry["graphs"]),
                  path=os.path.join(directory, entry["file"]))
            for entry in manifest["shards"]
        ]
        return cls(built, manifest["placement"],
                   manifest.get("mapping_method", "nbm"),
                   directory=directory)

    @classmethod
    def from_index(
        cls,
        index: Union[CTree, DiskCTree],
        shards: int,
        placement: str = "closure",
        min_fanout: int = 20,
        mapping_method: str = "nbm",
    ) -> "ShardSet":
        """Re-partition an already-open single-tree index into an
        in-memory shard set (the ``QueryEngine(..., shards=S)``
        delegation path).

        Graphs are taken from the index in id order, so global ids are
        preserved; for a disk index the partition is built over the
        *stored* (round-tripped) graphs, keeping similarity values
        consistent with what the single disk tree itself would compute.
        """
        stored = sorted(index.iter_graphs())
        if not stored:
            raise ConfigError("cannot shard an empty index")
        gids = [gid for gid, _ in stored]
        if gids != list(range(len(gids))):
            raise ConfigError(
                "sharding requires dense graph ids 0..n-1 "
                "(compact the index first)"
            )
        return cls.build_memory([g for _, g in stored], shards,
                                placement=placement, min_fanout=min_fanout,
                                mapping_method=mapping_method)

    # -- introspection -------------------------------------------------
    @staticmethod
    def _read_manifest(directory: str) -> dict:
        path = os.path.join(directory, MANIFEST_NAME)
        try:
            with open(path, encoding="utf-8") as fh:
                manifest = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"no shard manifest at {path}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"corrupt shard manifest {path}: {exc}") \
                from None
        if manifest.get("schema") != _MANIFEST_SCHEMA:
            raise ConfigError(
                f"unsupported shard manifest schema "
                f"{manifest.get('schema')!r} at {path}"
            )
        return manifest

    @property
    def is_disk(self) -> bool:
        """Whether the shards live in page files (vs in-memory trees)."""
        return self.shards[0].path is not None

    @property
    def shard_count(self) -> int:
        """Number of shards S."""
        return len(self.shards)

    def __len__(self) -> int:
        return sum(len(shard) for shard in self.shards)

    def shard_sizes(self) -> list[int]:
        """Graphs per shard, in shard order."""
        return [len(shard) for shard in self.shards]

    def describe(self) -> dict:
        """A JSON-friendly summary (the ``repro shard --stats``
        payload)."""
        return {
            "shards": self.shard_count,
            "placement": self.placement,
            "mapping_method": self.mapping_method,
            "backend": "disk" if self.is_disk else "memory",
            "directory": self.directory,
            "total_graphs": len(self),
            "shard_sizes": self.shard_sizes(),
        }

    def open_local(self) -> list[Union[CTree, DiskCTree]]:
        """Open (or return) one read-only handle per shard in this
        process — the inline execution path and the CLI's serial
        baseline."""
        handles: list[Union[CTree, DiskCTree]] = []
        for shard in self.shards:
            if shard.tree is not None:
                handles.append(shard.tree)
            else:
                handles.append(DiskCTree.open(shard.path, wal=False,
                                              auto_recover=False))
        return handles


# ----------------------------------------------------------------------
# Integrity checking
# ----------------------------------------------------------------------
@dataclass
class ShardSetReport:
    """What :func:`fsck_shards` found: per-shard
    :class:`~repro.ctree.diskindex.FsckReport` objects plus manifest-
    level placement errors."""

    directory: str
    reports: list[FsckReport] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    shard_count: int = 0
    total_graphs: int = 0

    @property
    def clean(self) -> bool:
        """No placement errors and every shard's own fsck is clean."""
        return not self.errors and all(r.clean for r in self.reports)

    def summary(self) -> str:
        """Human-readable one-liner (the CLI output)."""
        status = "clean" if self.clean else (
            f"{len(self.errors) + sum(len(r.errors) for r in self.reports)}"
            " error(s) found"
        )
        return (f"{self.directory}: {status}, {self.shard_count} shards, "
                f"{self.total_graphs} graphs")


def fsck_shards(directory: Union[str, os.PathLike],
                deep: bool = False) -> ShardSetReport:
    """Verify a shard directory end to end.

    Every shard page file gets a full
    :meth:`DiskCTree.fsck <repro.ctree.diskindex.DiskCTree.fsck>` (pass
    ``deep=True`` for closure-containment checks), and the placement
    manifest is verified against them: every global graph id on exactly
    one shard, and every shard holding exactly the graph count its
    manifest entry promises.
    """
    directory = os.fspath(directory)
    report = ShardSetReport(directory=directory)
    try:
        manifest = ShardSet._read_manifest(directory)
    except ConfigError as exc:
        report.errors.append(str(exc))
        return report
    entries = manifest.get("shards", [])
    report.shard_count = len(entries)
    seen: dict[int, int] = {}
    placed = 0
    for s, entry in enumerate(entries):
        path = os.path.join(directory, entry["file"])
        gids = list(entry["graphs"])
        placed += len(gids)
        for gid in gids:
            if gid in seen:
                report.errors.append(
                    f"graph {gid} placed on shards {seen[gid]} and {s}"
                )
            seen[gid] = s
        if sorted(gids) != gids:
            report.errors.append(f"shard {s}: manifest ids not ascending")
        try:
            shard_report = DiskCTree.fsck(path, deep=deep)
        except ReproError as exc:
            broken = FsckReport(path=path, deep=deep)
            broken.issue(f"fsck failed: {exc}")
            report.reports.append(broken)
            continue
        report.reports.append(shard_report)
        if shard_report.graphs != len(gids):
            report.errors.append(
                f"shard {s}: page file holds {shard_report.graphs} "
                f"graphs, manifest places {len(gids)}"
            )
    report.total_graphs = placed
    expected = manifest.get("total_graphs")
    if expected is not None and expected != len(seen):
        report.errors.append(
            f"manifest places {len(seen)} distinct graphs, "
            f"declares {expected}"
        )
    return report


# ----------------------------------------------------------------------
# Shard worker processes
# ----------------------------------------------------------------------
#: worker-process globals: this worker's shard index and identity
_SHARD_INDEX: Optional[Union[CTree, DiskCTree]] = None
_SHARD_ID: int = -1


def _shard_worker_init(tree: Optional[CTree], disk_path,
                       shard_id: int, cache_pages: int) -> None:
    """Pool initializer for one shard's worker: adopt the fork-inherited
    in-memory tree or open an independent read-only disk handle."""
    global _SHARD_INDEX, _SHARD_ID
    # Same rule as the batched engine: workers never write into the
    # parent's trace sink; spans are captured per task and shipped home.
    trace.disable()
    _SHARD_ID = shard_id
    if disk_path is not None:
        _SHARD_INDEX = DiskCTree.open(disk_path, cache_pages=cache_pages,
                                      wal=False, auto_recover=False)
    else:
        _SHARD_INDEX = tree


def _shard_execute(index: Union[CTree, DiskCTree], kind: str, query: Graph,
                   params: tuple):
    """Run one query against one shard — the same code paths the serial
    API uses, with K-NN in canonical (tie-stable) mode."""
    if kind == _KIND_SUBGRAPH:
        level, verify = params
        return subgraph_query(index, query, level=level, verify=verify)
    k, mapping_method, bound = params
    return knn_query(index, query, k, mapping_method=mapping_method,
                     canonical=True, bound=bound)


def _shard_worker_run(task):
    """Execute one scattered query in a shard worker.

    Returns the answers plus the worker's registry delta, busy time and
    captured span records, exactly like
    :func:`repro.ctree.parallel._worker_run` — the coordinator merges
    deltas and folds spans so a sharded run reports the same process-
    wide totals and one coherent trace tree.
    """
    token, kind, query, params, ctx = task
    registry = global_registry()
    before = registry.snapshot()
    spans: list = []
    start = time.perf_counter()
    if ctx is not None:
        with trace.capture() as spans:
            with trace.span("shard.task", shard=_SHARD_ID, kind=kind,
                            pid=os.getpid()):
                answers, stats = _shard_execute(_SHARD_INDEX, kind, query,
                                                params)
    else:
        answers, stats = _shard_execute(_SHARD_INDEX, kind, query, params)
    busy = time.perf_counter() - start
    return (token, answers, stats, registry.diff(before), busy, spans)


# ----------------------------------------------------------------------
# Merging
# ----------------------------------------------------------------------
def merge_subgraph(per_shard: list[list[int]],
                   shardset: ShardSet) -> list[int]:
    """Translate per-shard local answer ids to global ids and return
    the union sorted ascending (the canonical answer-set form)."""
    merged = [
        shardset.shards[s].gids[local]
        for s, answers in enumerate(per_shard)
        for local in answers
    ]
    merged.sort()
    return merged


def merge_knn(per_shard: list[list[tuple[int, float]]],
              shardset: ShardSet, k: int) -> list[tuple[int, float]]:
    """Merge per-shard canonical K-NN lists into the global canonical
    top-k under ``(-similarity, global_id)``.

    Correct because each shard list is its shard's exact top-k under
    that total order and local ids translate monotonically to global
    ids (ascending manifest lists) — see the module docstring's merge
    argument.
    """
    merged = [
        (shardset.shards[s].gids[local], sim)
        for s, results in enumerate(per_shard)
        for local, sim in results
    ]
    merged.sort(key=lambda t: (-t[1], t[0]))
    return merged[:k]


def _merge_stats(per_shard: list, total_size: int):
    """Fold per-shard stats objects into one (counters summed;
    ``database_size`` is the whole database, not the max shard)."""
    merged = per_shard[0].copy()
    for stats in per_shard[1:]:
        merged.merge(stats)
    merged.database_size = total_size
    return merged


# ----------------------------------------------------------------------
# The coordinator
# ----------------------------------------------------------------------
class ShardedEngine:
    """Scatter-gather batched query execution over a :class:`ShardSet`.

    Drop-in for :class:`~repro.ctree.parallel.QueryEngine` on the
    serving side: same ``query_many``/``knn_many``/``start``/
    ``refresh``/``close`` surface, same ``last_batch`` report, same
    worker-delta metric merging and span folding.  Differences:

    - each shard has its **own single-process pool**, so a batch of B
      queries over S shards runs up to S tasks concurrently and every
      query's tree work is 1/S-sized;
    - answers follow the canonical forms of the module docstring
      (subgraph sorted by global id, K-NN in ``(-sim, id)`` order);
    - ``cache`` may be any object with the
      :mod:`repro.ctree.shardcache` interface — pass a
      :class:`~repro.ctree.shardcache.SharedMemoryAnswerCache` to share
      answers across engine *processes* (a hit served from it touches
      no shard at all).

    Examples
    --------
    ::

        sset = ShardSet.create(graphs, "idx.shards", shards=4)
        with ShardedEngine(ShardSet.open("idx.shards")) as engine:
            results = engine.query_many(queries)   # [(answers, stats)]
    """

    def __init__(
        self,
        shardset: ShardSet,
        cache=None,
        cache_size: int = 256,
        cache_pages: int = 128,
        pushdown: bool = False,
    ) -> None:
        self.shardset = shardset
        self.cache = cache if cache is not None \
            else LRUAnswerCache(cache_size)
        self._cache_pages = cache_pages
        self.pushdown = pushdown
        self._pools: Optional[list] = None
        self._local: Optional[list] = None
        self._refresh_hooks: list = []
        self.last_batch: Optional[BatchReport] = None
        self._fork_ok = "fork" in multiprocessing.get_all_start_methods()

    # -- lifecycle -----------------------------------------------------
    @property
    def workers(self) -> int:
        """One worker process per shard."""
        return self.shardset.shard_count

    def start(self, workers: Optional[int] = None) -> "ShardedEngine":
        """Eagerly fork the per-shard worker processes; returns ``self``.

        ``workers`` is accepted for interface compatibility with
        :meth:`QueryEngine.start
        <repro.ctree.parallel.QueryEngine.start>` but ignored — the
        worker count *is* the shard count.
        """
        if self._fork_ok:
            self._ensure_pools()
        return self

    def refresh(self) -> None:
        """Drop cached answers and re-run registered hooks.

        Shards are immutable once built — there is no index epoch to
        advance; rebuilding the partition (``repro shard --create``)
        and opening a fresh engine is the mutation path.  With a
        shared-memory cache this bumps the slab generation, so *every*
        attached engine process drops its answers at once.
        """
        self.cache.clear()
        for hook in self._refresh_hooks:
            hook(self)

    def on_refresh(self, hook) -> None:
        """Register ``hook(engine)`` to run after every
        :meth:`refresh`."""
        self._refresh_hooks.append(hook)

    def close(self) -> None:
        """Reap the per-shard worker pools and local handles
        (idempotent).  An injected cache is left attached — close or
        destroy it at its own scope."""
        if self._pools is not None:
            for pool in self._pools:
                pool.close()
            for pool in self._pools:
                pool.join()
            self._pools = None
        if self._local is not None:
            for handle, shard in zip(self._local, self.shardset.shards):
                if shard.tree is None:
                    handle.close()
            self._local = None

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- public query API ----------------------------------------------
    def query_many(
        self,
        queries: Sequence[Graph],
        level=1,
        verify: bool = True,
        workers: Optional[int] = None,
    ) -> list[tuple[list[int], QueryStats]]:
        """Answer a batch of subgraph queries across all shards.

        Returns ``[(answers, stats), ...]`` in input order; each
        ``answers`` is sorted ascending by global graph id and equals
        ``sorted()`` of the single-tree serial answer at every shard
        count.  ``workers`` is accepted for interface compatibility and
        ignored (fan-out is always all shards).
        """
        return self._run_batch(_KIND_SUBGRAPH, queries, (level, verify))

    def knn_many(
        self,
        queries: Sequence[Graph],
        k: int,
        mapping_method: str = "nbm",
        workers: Optional[int] = None,
    ) -> list[tuple[list[tuple[int, float]], KnnStats]]:
        """Answer a batch of K-NN queries across all shards.

        Returns the canonical global top-k per query — identical to a
        single-tree ``knn_query(..., canonical=True)`` over the whole
        database, at every shard count and placement.
        """
        return self._run_batch(_KIND_KNN, queries, (k, mapping_method))

    # -- batch orchestration -------------------------------------------
    def _run_batch(self, kind, queries, params):
        queries = list(queries)
        n = len(queries)
        if n == 0:
            return []
        registry = global_registry()
        start = time.perf_counter()
        results: list = [None] * n
        hits = 0
        # The cache stores *merged* sharded answers; the "sharded"
        # marker keeps the canonical-order entries from ever colliding
        # with a single-tree engine's traversal-order entries in a
        # shared slab.
        cache_params = (*params, "sharded")
        pending: "OrderedDict[tuple, tuple]" = OrderedDict()
        with trace.span("shard.scatter", kind=kind, queries=n,
                        shards=self.workers) as sp:
            for pos, query in enumerate(queries):
                cached = self.cache.get(kind, cache_params, query)
                if cached is not None:
                    answers, stats = cached
                    results[pos] = (list(answers), stats.copy())
                    hits += 1
                    continue
                if self.cache.enabled:
                    key = (query.signature(), structure_key(query))
                else:
                    key = pos
                if key in pending:
                    pending[key][1].append(pos)
                else:
                    pending[key] = (query, [pos])

            ctx = trace.export_context()
            plan = [(query, positions)
                    for (query, positions) in pending.values()]
            busy = 0.0
            # An all-hits batch must not touch (or even fork) a shard —
            # the cross-process warm-start gate depends on it.
            parallel = self._fork_ok and self.workers > 1 and bool(plan)
            if kind == _KIND_KNN and self.pushdown:
                executed, busy = self._scatter_knn_pushdown(
                    plan, params, ctx, registry, parallel
                )
            else:
                executed, busy = self._scatter_all(
                    kind, plan, params, ctx, registry, parallel
                )

            for task_id, (query, positions) in enumerate(plan):
                answers, stats = executed[task_id]
                self.cache.put(kind, cache_params, query, answers, stats)
                for pos in positions:
                    results[pos] = (list(answers), stats.copy())

            wall = time.perf_counter() - start
            report = BatchReport(
                kind=kind, queries=n, dispatched=len(plan),
                cache_hits=hits, workers=self.workers, parallel=parallel,
                wall_seconds=wall, busy_seconds=busy,
            )
            self.last_batch = report
            self._publish_batch(registry, report)
            sp.set(dispatched=report.dispatched, cache_hits=hits,
                   wall_seconds=wall)
        return results

    def _scatter_all(self, kind, plan, params, ctx, registry, parallel):
        """Scatter every pending query to every shard concurrently and
        gather deterministically (query order x shard order)."""
        total = len(self.shardset)
        if kind == _KIND_KNN:
            k, mapping_method = params
            task_params = (k, mapping_method, float("-inf"))
        else:
            task_params = params
        submissions: list[list] = []
        if parallel:
            pools = self._ensure_pools()
            # Submit the full batch up front: each shard's pool drains
            # its queue in submission order, so all S shards stay busy
            # across the whole batch, not just within one query.
            for task_id, (query, _) in enumerate(plan):
                submissions.append([
                    pools[s].apply_async(
                        _shard_worker_run,
                        ((task_id, kind, query, task_params, ctx),),
                    )
                    for s in range(self.workers)
                ])
        executed = {}
        busy = 0.0
        for task_id, (query, _) in enumerate(plan):
            per_shard_answers = []
            per_shard_stats = []
            for s in range(self.workers):
                if parallel:
                    token, answers, stats, delta, task_busy, spans = \
                        submissions[task_id][s].get()
                    registry.merge(delta)
                    trace.fold_worker_records(spans, ctx)
                else:
                    answers, stats, task_busy = self._run_local(
                        s, kind, query, task_params
                    )
                per_shard_answers.append(answers)
                per_shard_stats.append(stats)
                busy += task_busy
                self._publish_shard(registry, s, kind, stats, task_busy)
            executed[task_id] = self._merge(kind, params, per_shard_answers,
                                            per_shard_stats, total)
        return executed, busy

    def _scatter_knn_pushdown(self, plan, params, ctx, registry, parallel):
        """Visit shards in sequence per query, forwarding the running
        global kth-best similarity as each next shard's pruning bound.

        Same canonical answers as :meth:`_scatter_all` (the bound only
        removes graphs strictly below an already-achieved kth-best);
        less total work, no cross-shard parallelism within one query.
        """
        k, mapping_method = params
        total = len(self.shardset)
        pools = self._ensure_pools() if parallel else None
        executed = {}
        busy = 0.0
        baseline_counter = registry.counter("shard.pushdown.pruned")
        for task_id, (query, _) in enumerate(plan):
            merged: list[tuple[int, float]] = []
            per_shard_stats = []
            bound = float("-inf")
            for s in range(self.workers):
                task_params = (k, mapping_method, bound)
                if parallel:
                    token, answers, stats, delta, task_busy, spans = \
                        pools[s].apply_async(
                            _shard_worker_run,
                            ((task_id, _KIND_KNN, query, task_params,
                              ctx),),
                        ).get()
                    registry.merge(delta)
                    trace.fold_worker_records(spans, ctx)
                else:
                    answers, stats, task_busy = self._run_local(
                        s, _KIND_KNN, query, task_params
                    )
                busy += task_busy
                per_shard_stats.append(stats)
                self._publish_shard(registry, s, _KIND_KNN, stats,
                                    task_busy)
                translated = [(self.shardset.shards[s].gids[local], sim)
                              for local, sim in answers]
                merged.extend(translated)
                merged.sort(key=lambda t: (-t[1], t[0]))
                del merged[k:]
                if len(merged) >= k:
                    new_bound = merged[k - 1][1]
                    if new_bound > bound:
                        bound = new_bound
            baseline_counter.inc(
                sum(s.pruned_by_bound for s in per_shard_stats)
            )
            executed[task_id] = (merged,
                                 _merge_stats(per_shard_stats, total))
        return executed, busy

    def _merge(self, kind, params, per_shard_answers, per_shard_stats,
               total):
        if kind == _KIND_SUBGRAPH:
            answers = merge_subgraph(per_shard_answers, self.shardset)
        else:
            k, _ = params
            answers = merge_knn(per_shard_answers, self.shardset, k)
        return (answers, _merge_stats(per_shard_stats, total))

    # -- execution backends --------------------------------------------
    def _ensure_pools(self):
        if self._pools is not None:
            return self._pools
        ctx = multiprocessing.get_context("fork")
        pools = []
        for s, shard in enumerate(self.shardset.shards):
            if shard.path is not None:
                initargs = (None, os.fspath(shard.path), s,
                            self._cache_pages)
            else:
                # Fork inherits the tree (and its warmed kernel caches)
                # by reference — never pickled.
                initargs = (shard.tree, None, s, self._cache_pages)
            pools.append(ctx.Pool(processes=1,
                                  initializer=_shard_worker_init,
                                  initargs=initargs))
        self._pools = pools
        return pools

    def _run_local(self, s: int, kind, query, task_params):
        """Inline fallback: run one shard's part of a query in-process
        (no fork available, or a single shard)."""
        if self._local is None:
            self._local = self.shardset.open_local()
        start = time.perf_counter()
        with trace.span("shard.task", shard=s, kind=kind, pid=os.getpid()):
            answers, stats = _shard_execute(self._local[s], kind, query,
                                            task_params)
        return answers, stats, time.perf_counter() - start

    # -- metrics -------------------------------------------------------
    def _publish_shard(self, registry, s: int, kind, stats,
                       task_busy: float) -> None:
        prefix = f"shard.s{s}"
        registry.counter(f"{prefix}.tasks").inc()
        registry.counter(f"{prefix}.busy_seconds").inc(task_busy)
        # "Candidate work": what the balance gate measures — graphs this
        # shard actually scored (K-NN) or verified (subgraph).
        if kind == _KIND_KNN:
            registry.counter(f"{prefix}.candidate_work").inc(
                stats.graphs_scored
            )
        else:
            registry.counter(f"{prefix}.candidate_work").inc(
                stats.candidates
            )

    def _publish_batch(self, registry, report: BatchReport) -> None:
        registry.counter("shard.scatter.batches").inc()
        registry.counter("shard.scatter.queries").inc(report.queries)
        registry.counter("shard.scatter.dispatched").inc(report.dispatched)
        registry.counter("shard.scatter.cache_hits").inc(report.cache_hits)
        registry.counter("shard.scatter.cache_misses").inc(
            report.queries - report.cache_hits
        )
        registry.counter("shard.scatter.wall_seconds").inc(
            report.wall_seconds
        )
        registry.counter("shard.scatter.busy_seconds").inc(
            report.busy_seconds
        )
        registry.gauge("shard.count").set(self.workers)
        registry.gauge("shard.scatter.utilization").set(report.utilization)

    @property
    def cache_entries(self) -> int:
        """Answers currently held by the front cache."""
        return self.cache.entries

    def __repr__(self) -> str:
        backend = "disk" if self.shardset.is_disk else "memory"
        return (f"<ShardedEngine {backend} S={self.workers} "
                f"|D|={len(self.shardset)} "
                f"placement={self.shardset.placement}>")
