"""Node stores: where a C-tree's nodes and graphs live.

The tree (:mod:`repro.ctree.tree`) and the query processors never touch
nodes directly; they go through a *node store* — load a node, load a
graph, allocate / write / free a node or a graph, get / set the root —
so one Section 5 insert / split / delete and one Alg. 3 / Alg. 4
traversal serve both representations:

- :class:`MemoryNodeStore` — references *are* the live
  :class:`~repro.ctree.node.CTreeNode` / :class:`~repro.ctree.node.LeafEntry`
  objects, loads return them unchanged and writes are no-ops, so kernel
  contexts memoized on closures and graphs survive across queries;
- :class:`PagedNodeStore` — references are record ids in a
  :class:`~repro.storage.recordstore.RecordStore`; it owns the JSON record
  format (one record per node, one per graph) and keeps the root, height
  and leaf count of the index metadata current.

A node reference is opaque to the shared code.  A leaf's ``children`` are
*entries* exposing ``graph_id``; :meth:`load_graph` turns one into its
graph.  :meth:`metered` is the single hook through which a query learns
its page I/O.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import NamedTuple

from repro.graphs.graph import Graph
from repro.ctree.node import CTreeNode, LeafEntry
from repro.ctree.stats import CounterField, KnnStats, QueryStats
from repro.storage.recordstore import RecordStore


class MemoryNodeStore:
    """Nodes and graphs as live objects."""

    def __init__(self) -> None:
        self.root = CTreeNode(is_leaf=True)

    def set_root(self, ref: CTreeNode, height: int) -> None:
        """Install a new root (a live tree measures its own height)."""
        self.root = ref

    def load_node(self, ref: CTreeNode) -> CTreeNode:
        """A reference is the node."""
        return ref

    def load_graph(self, entry: LeafEntry) -> Graph:
        """The graph a leaf entry holds."""
        return entry.graph

    def alloc_node(self, node: CTreeNode) -> CTreeNode:
        """A new node is its own reference."""
        return node

    def write_node(self, ref: CTreeNode, node: CTreeNode) -> None:
        """Nodes are mutated in place; nothing to write back."""

    def free_node(self, ref: CTreeNode, node: CTreeNode) -> None:
        """Unlinked nodes are garbage-collected."""

    def alloc_graph(self, graph_id: int, graph: Graph) -> LeafEntry:
        """A leaf entry holding ``graph`` under ``graph_id``."""
        return LeafEntry(graph_id, graph)

    def free_graph(self, entry: LeafEntry) -> None:
        """Unlinked entries are garbage-collected."""

    @contextmanager
    def metered(self, stats_cls, database_size: int, span):
        """Yield one query's stats object (no I/O to account for)."""
        yield stats_cls(database_size=database_size)


class StoredEntry(NamedTuple):
    """A leaf entry of a paged node: graph id + the graph's record id."""

    graph_id: int
    record: int


class _PageIO:
    """Buffer-pool I/O deltas on top of a query's counters."""

    def __init__(self, page_hits: int = 0, page_misses: int = 0,
                 **kwargs) -> None:
        super().__init__(**kwargs)
        self.page_hits = page_hits
        self.page_misses = page_misses

    @property
    def page_hit_ratio(self) -> float:
        """Fraction of page reads served from the buffer pool."""
        total = self.page_hits + self.page_misses
        return self.page_hits / total if total else 0.0

    def explain(self) -> dict:
        """The base EXPLAIN profile plus a ``page_io`` block."""
        total = self.page_hits + self.page_misses
        return {**super().explain(), "page_io": {
            "hits": self.page_hits,
            "misses": self.page_misses,
            "hit_ratio": self.page_hits / total if total else 1.0,
        }}


class DiskQueryStats(_PageIO, QueryStats):
    """Query counters plus buffer-pool I/O deltas."""

    page_hits = CounterField("ctree.query.page_hits")
    page_misses = CounterField("ctree.query.page_misses")

    _COUNTER_FIELDS = QueryStats._COUNTER_FIELDS + ("page_hits",
                                                    "page_misses")
    # Page I/O depends on buffer-pool temperature, which depends on the
    # execution schedule — excluded from determinism comparisons.
    _NONDETERMINISTIC_KEYS = QueryStats._NONDETERMINISTIC_KEYS + (
        "page_hits", "page_misses")


class DiskKnnStats(_PageIO, KnnStats):
    """K-NN counters plus buffer-pool I/O deltas."""

    page_hits = CounterField("ctree.knn.page_hits")
    page_misses = CounterField("ctree.knn.page_misses")

    _COUNTER_FIELDS = KnnStats._COUNTER_FIELDS + ("page_hits",
                                                  "page_misses")
    _NONDETERMINISTIC_KEYS = KnnStats._NONDETERMINISTIC_KEYS + (
        "page_hits", "page_misses")


_DISK_STATS = {QueryStats: DiskQueryStats, KnnStats: DiskKnnStats}


def dump_record(record: dict) -> bytes:
    """The on-disk form of one JSON record."""
    return json.dumps(record, separators=(",", ":")).encode("utf-8")


class PagedNodeStore:
    """Nodes and graphs as JSON records behind a buffer pool.

    ``meta`` is the index metadata dict of the owning
    :class:`~repro.ctree.diskindex.DiskCTree`; the store keeps its
    ``root`` / ``height`` / ``leaf_count`` entries current as the tree
    changes shape, the owner decides when it is written and committed.
    """

    def __init__(self, records: RecordStore, meta: dict) -> None:
        self.records = records
        self.meta = meta

    @property
    def root(self) -> int:
        """Record id of the root node."""
        return self.meta["root"]

    def set_root(self, ref: int, height: int) -> None:
        """Install a new root standing ``height`` levels above the leaves."""
        self.meta["root"] = ref
        self.meta["height"] = height

    def load_record(self, record_id: int) -> dict:
        """One record, JSON-parsed (node, graph or metadata)."""
        return json.loads(self.records.load(record_id).decode("utf-8"))

    def load_node(self, ref: int) -> CTreeNode:
        """Decode one node record (its closure stays serialized)."""
        record = self.load_record(ref)
        if record["leaf"]:
            children = [StoredEntry(*pair)
                        for pair in record.get("graphs", [])]
        else:
            children = record.get("children", [])
        return CTreeNode(record["leaf"], children, record.get("closure"))

    def load_graph(self, entry: StoredEntry) -> Graph:
        """Decode the graph record a leaf entry points at."""
        return Graph.from_dict(self.load_record(entry.record))

    @staticmethod
    def _encode(node: CTreeNode) -> bytes:
        record: dict = {"leaf": node.is_leaf}
        closure = node.stored_closure()
        if closure is not None:
            record["closure"] = closure
        record["graphs" if node.is_leaf else "children"] = node.children
        return dump_record(record)

    def _count_leaf(self, node: CTreeNode, delta: int) -> None:
        if node.is_leaf:
            self.meta["leaf_count"] = self.meta.get("leaf_count", 0) + delta

    def alloc_node(self, node: CTreeNode) -> int:
        """Store a new node record; returns its id."""
        self._count_leaf(node, +1)
        return self.records.store(self._encode(node))

    def write_node(self, ref: int, node: CTreeNode) -> None:
        """Rewrite a node record in place (its id is stable)."""
        self.records.update(ref, self._encode(node))

    def free_node(self, ref: int, node: CTreeNode) -> None:
        """Return a node record's pages to the free list."""
        self.records.delete(ref)
        self._count_leaf(node, -1)

    def alloc_graph(self, graph_id: int, graph: Graph) -> StoredEntry:
        """Store a graph record; returns the leaf entry pointing at it."""
        return StoredEntry(graph_id,
                           self.records.store(dump_record(graph.to_dict())))

    def free_graph(self, entry: StoredEntry) -> None:
        """Return a graph record's pages to the free list."""
        self.records.delete(entry.record)

    @contextmanager
    def metered(self, stats_cls, database_size: int, span):
        """Yield one query's stats object; on exit record the buffer-pool
        hits and misses the query caused (stats and span)."""
        pool = self.records.pool
        hits, misses = pool.hits, pool.misses
        stats = _DISK_STATS[stats_cls](database_size=database_size)
        span.set(disk=True)
        yield stats
        stats.page_hits = pool.hits - hits
        stats.page_misses = pool.misses - misses
        span.set(page_hits=stats.page_hits, page_misses=stats.page_misses)
