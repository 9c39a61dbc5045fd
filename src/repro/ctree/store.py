"""Node stores: where a C-tree's nodes and graphs live.

The tree (:mod:`repro.ctree.tree`) and the query processors never touch
nodes directly; they go through a *node store* — load a node, load a
graph, allocate / write / free a node or a graph, get / set the root —
so one Section 5 insert / split / delete and one Alg. 3 / Alg. 4
traversal serve both representations.  Both keep the tree's shape in one
``meta`` dict — root, height, leaf and graph counts, id watermark:

- :class:`MemoryNodeStore` — references *are* the live
  :class:`~repro.ctree.node.CTreeNode` / :class:`~repro.ctree.node.LeafEntry`
  objects, loads return them unchanged and writes are no-ops, so kernel
  contexts memoized on closures and graphs survive across queries;
- :class:`PagedNodeStore` — references are record ids in a
  :class:`~repro.storage.recordstore.RecordStore`, and its shape
  metadata is the index metadata.  This module owns
  the record format (one JSON record per node, one per graph) and its
  only codec: ``encode_*`` / ``decode_*`` below.  A query reads a graph
  record without building the graph: a subgraph query through
  :func:`decode_graph_context`, which compiles it into the label half
  and the Alg. 2 half of a :class:`RecordContext`, a K-NN or range query
  through :func:`decode_nbm_context`, into the label half and the Alg. 1
  one.

A node reference is opaque to the shared code.  A leaf's ``children`` are
*entries* exposing ``graph_id``; :meth:`graph_summary` gives the label
histogram Alg. 3 screens an entry with — held by the entry itself on
disk, so a rejected graph is never read — :meth:`load_context` turns an
entry into the compiled context Alg. 3 tests and verifies it on,
:meth:`load_nbm_context` into the one NBM scores it on (what K-NN and
range queries score), and :meth:`load_graph` into its graph (what
maintenance and printing read).
:meth:`metered` is the single hook through which a query learns its page
I/O: it hands the query its stats record, and the paged store fills in
the record's ``page_hits`` / ``page_misses`` and ``node_hits`` /
``node_loads``.

A paged store keeps the nodes it decoded **resident** (at most as many
as its buffer pool has frames, leaves evicted first), so a handle
decodes each node once, not once per query, and a resident leaf's
entries keep the contexts compiled from their graph records — one per
entry, with the half of each algorithm that has read it, Alg. 1's
without its per-vertex adjacency dicts — so a graph record a subgraph
query tested or a K-NN or range query scored is not read again while
its leaf is held; a write batch (:meth:`PagedNodeStore.writing`) works
on them and evicts only the nodes it rewrites or frees, so what is
decoded again is what changed.

**Record format 4** (layout and rationale: ``docs/DURABILITY.md``; the
slotted pages that hold the records: :mod:`repro.storage.recordstore`).  A
graph is ``{"vl": [labels], "v": [index into vl], "el": [labels], "e": [u,
v, index into el, ...], "name"?}``; a closure the same with bitmasks over
the record's own tables as codes; a node ``{"leaf", "closure"?, "graphs":
[[graph id, record id, vhist, ehist], ...] | "children": [record ids]}``.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from contextlib import contextmanager
from typing import Iterable, Iterator, Optional

from repro.exceptions import GraphError
from repro.graphs.closure import (
    _EPSILON_JSON,
    _WILDCARD_JSON,
    EPSILON,
    WILDCARD,
    GraphClosure,
)
from repro.graphs.graph import Graph
from repro.graphs.labelspace import (
    WILDCARD_BIT,
    LabelSpace,
    LabelSummary,
    TargetContext,
    global_labelspace,
    label_context,
    nbm_context,
    target_context,
)
from repro.ctree.node import CTreeNode, LeafEntry
from repro.ctree.stats import (
    PAGE_IO,
    DiskKnnStats,
    DiskQueryStats,
    KnnStats,
)
from repro.obs.metrics import global_registry
from repro.storage.recordstore import RecordStore


class _ShapedStore:
    """What both stores keep of the tree's shape, in one ``meta`` dict:
    the ``root`` reference, the ``height`` and ``leaf_count`` the store
    keeps current as nodes are allocated and freed, and the
    ``graph_count`` / ``next_id`` a write batch
    (:meth:`~repro.ctree.tree.CTreeCore.extend`) keeps."""

    def __init__(self, meta: dict) -> None:
        self.meta = meta

    @property
    def root(self):
        """The root node's reference."""
        return self.meta["root"]

    def set_root(self, ref, height: int) -> None:
        """Install a new root standing ``height`` levels above the leaves."""
        self.meta["root"] = ref
        self.meta["height"] = height

    @property
    def height(self) -> int:
        """Levels above the leaves."""
        return self.meta["height"]

    def _count_leaf(self, node: CTreeNode, delta: int) -> None:
        if node.is_leaf:
            self.meta["leaf_count"] += delta


class MemoryNodeStore(_ShapedStore):
    """Nodes and graphs as live objects."""

    #: how a check finding names a node (a live one has no address)
    NODE_NAME = "node {!r}"

    def __init__(self) -> None:
        super().__init__({"root": CTreeNode(is_leaf=True), "height": 0,
                          "leaf_count": 1, "graph_count": 0, "next_id": 0})

    def load_node(self, ref: CTreeNode) -> CTreeNode:
        """A reference is the node."""
        return ref

    def graph_summary(self, entry: LeafEntry) -> LabelSummary:
        """The label histogram Alg. 3 screens the entry's graph with."""
        return label_context(entry.graph)

    @staticmethod
    def entry_matches(entry: LeafEntry, summary: LabelSummary) -> bool:
        """Always: a live entry's summary is built from its graph."""
        return True

    def load_graph(self, entry: LeafEntry) -> Graph:
        """The graph a leaf entry holds."""
        return entry.graph

    def load_context(self, entry: LeafEntry) -> TargetContext:
        """The Alg. 2 target context of the entry's graph, memoised on it."""
        return target_context(entry.graph)

    def load_nbm_context(self, entry: LeafEntry) -> TargetContext:
        """The Alg. 1 context of the entry's graph, memoised on it."""
        return nbm_context(entry.graph)

    def alloc_node(self, node: CTreeNode) -> CTreeNode:
        """A new node is its own reference."""
        self._count_leaf(node, +1)
        return node

    def write_node(self, ref: CTreeNode, node: CTreeNode) -> None:
        """Nodes are mutated in place; nothing to write back."""

    def free_node(self, ref: CTreeNode, node: CTreeNode) -> None:
        """Unlinked nodes are garbage-collected."""
        self._count_leaf(node, -1)

    def alloc_graph(self, graph_id: int, graph: Graph) -> LeafEntry:
        """A leaf entry holding ``graph`` under ``graph_id``."""
        return LeafEntry(graph_id, graph)

    def free_graph(self, entry: LeafEntry) -> None:
        """Unlinked entries are garbage-collected."""

    @contextmanager
    def metered(self, stats_cls, database_size: int, span):
        """Yield one query's stats record (no page I/O to count)."""
        yield stats_cls(database_size=database_size)


class StoredEntry:
    """A leaf entry of a paged node: graph id, the graph's record id, and
    the graph's label histograms as flat ``[label, count, ...]`` lists
    (a graph never changes, so they are written once, at
    :meth:`PagedNodeStore.alloc_graph`; ``fsck`` checks them).
    ``summary`` is the entry's one memo, ``(label space, summary)``: the
    :class:`LabelSummary` :meth:`PagedNodeStore.graph_summary` builds
    from the histograms, until :meth:`PagedNodeStore.load_context` or
    :meth:`PagedNodeStore.load_nbm_context` replaces it with the graph's
    :class:`RecordContext` (a ``LabelSummary`` too), which the other
    then completes.  It lives as long as the node holding the
    entry does: a rewritten or freed node is evicted, and a graph that
    takes a freed record slot comes back in a new entry."""

    __slots__ = ("graph_id", "record", "vhist", "ehist", "summary")

    def __init__(self, graph_id: int, record: int, vhist: list,
                 ehist: list) -> None:
        self.graph_id = graph_id
        self.record = record
        self.vhist = vhist
        self.ehist = ehist
        self.summary: Optional[tuple] = None


def _stored_summary(entry: StoredEntry, space: LabelSpace) -> LabelSummary:
    """The flat histograms a leaf entry carries, in ``space``."""
    vhist, ehist = entry.vhist, entry.ehist
    return LabelSummary(
        dict(zip(map(space.vertex_id, vhist[::2]), vhist[1::2])),
        dict(zip(map(space.edge_id, ehist[::2]), ehist[1::2])))


def dump_record(record: dict) -> bytes:
    """The on-disk form of one JSON record."""
    return json.dumps(record, separators=(",", ":")).encode("utf-8")


# ----------------------------------------------------------------------
# The record codec
# ----------------------------------------------------------------------
#: record label -> in-process label where the two differ (the markers
#: of the ``to_dict`` forms), and back
_GRAPH_LABELS = {_WILDCARD_JSON: WILDCARD}
_CLOSURE_LABELS = {_WILDCARD_JSON: WILDCARD, _EPSILON_JSON: EPSILON}
_RECORD_LABELS = {label: name for name, label in _CLOSURE_LABELS.items()}
#: what the ``decode_*`` functions raise on a record that parsed as JSON
#: but is not a valid record
BAD_RECORD = (GraphError, KeyError, IndexError, TypeError, ValueError)


def encode_graph(graph: Graph) -> dict:
    """``graph`` as a record, edges in ``edges()`` order: the same graph
    always encodes to the same bytes."""
    vtable: dict = {}
    etable: dict = {}
    codes = [vtable.setdefault(graph.label(v), len(vtable))
             for v in graph.vertices()]
    edges: list = []
    for u, v, label in graph.edges():
        edges += (u, v, etable.setdefault(label, len(etable)))
    record = {"vl": [_RECORD_LABELS.get(x, x) for x in vtable], "v": codes,
              "el": [_RECORD_LABELS.get(x, x) for x in etable], "e": edges}
    if graph.name is not None:
        record["name"] = graph.name
    return record


def record_histograms(record: dict) -> tuple[list, list]:
    """The flat ``[label, count, ...]`` vertex and edge histograms of a
    graph record (table order; a wildcard never counts) — what the leaf
    entry pointing at it must carry."""
    def flat(table: list, codes: list) -> list:
        out: list = []
        for i, label in enumerate(table):
            if label != _WILDCARD_JSON:
                out += (label, codes.count(i))
        return out

    return (flat(record["vl"], record["v"]),
            flat(record["el"], record["e"][2::3]))


def encode_closure(closure: GraphClosure) -> dict:
    """``closure`` as a record: label sets as bitmasks over the record's
    sorted label tables (sorting keeps the bytes independent of set
    iteration order, i.e. of ``PYTHONHASHSEED``)."""
    def table_and_masks(sets: list) -> tuple[list, list]:
        table = sorted({_RECORD_LABELS.get(x, x) for s in sets for x in s},
                       key=repr)
        bit = {_CLOSURE_LABELS.get(x, x): 1 << i for i, x in enumerate(table)}
        mask = {s: sum(bit[x] for x in s) for s in set(sets)}
        return table, [mask[s] for s in sets]

    vtable, vmasks = table_and_masks(
        [closure.label_set(v) for v in closure.vertices()])
    triples = list(closure.edges())
    etable, emasks = table_and_masks([s for _, _, s in triples])
    edges: list = []
    for (u, v, _), m in zip(triples, emasks):
        edges += (u, v, m)
    return {"vl": vtable, "v": vmasks, "el": etable, "e": edges}


def _lookup(table: list, marks: dict,
            masks: Optional[Iterable[int]] = None) -> dict:
    """``code -> label(s)`` for one label table of a record: a graph's
    codes index the table; a closure's (pass the ``masks`` it uses) are
    bitmasks over it and map to ``frozenset``s, each distinct mask
    expanded once per record."""
    labels = [marks.get(x, x) for x in table]
    if masks is None:
        return dict(enumerate(labels))
    lut: dict = {}
    for m in masks:
        if not 0 < m < 1 << len(table):
            raise GraphError(f"label mask {m} outside its {len(table)}-label "
                             f"table")
        lut[m] = frozenset(label for i, label in enumerate(labels)
                           if m >> i & 1)
    return lut


def _adjacency(n: int, edges: list, elut) -> list[dict]:
    """The adjacency of ``n`` vertices joined by a record's flat edge
    array — per vertex a ``{neighbour: edge label}`` dict in stored edge
    order, labels from ``elut`` (code -> label) — in one pass over the
    triples, with ``add_edge``'s range / self-loop / duplicate checks."""
    if len(edges) % 3:
        raise GraphError("edge array is not (u, v, label) triples")
    adj: list[dict] = [{} for _ in range(n)]
    it = iter(edges)
    for u, v, code in zip(it, it, it):
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) out of range")
        if u == v:
            raise GraphError(f"self-loop on vertex {u} not supported")
        row = adj[u]
        if v in row:
            raise GraphError(f"duplicate edge ({u}, {v})")
        row[v] = adj[v][u] = elut[code]
    return adj


class RecordContext(TargetContext):
    """The :class:`TargetContext` of a disk graph record, as a resident
    leaf entry memoises it (:meth:`PagedNodeStore.load_context` /
    :meth:`PagedNodeStore.load_nbm_context`): the label half, and the
    half of each algorithm that has read the entry.  Alg. 1's keeps the
    vertex keys and profiles, and in place of the per-vertex adjacency
    dicts (three quarters of its bytes) the record's edge array and
    edge-label table, which :meth:`scoring` rebuilds them from."""

    __slots__ = ("edges", "elabels")

    def scoring(self) -> TargetContext:
        """What one Alg. 1 score reads of the graph, dropped with it: a
        view sharing this context's Alg. 1 half, with the adjacency the
        compile built (first score) or one rebuilt from the record's
        edges (every later one)."""
        adj, self.adj = self.adj, None
        if adj is None:
            adj = _adjacency(self.n, self.edges, self.elabels)
        return TargetContext.nbm_only(self.vmasks, self.edge_counts,
                                      self.edge_masks, adj, self.vkeys,
                                      self.profiles)

    def adopt(self, other: "RecordContext") -> "RecordContext":
        """Take over the algorithm's half that ``other``, compiled from
        the same record, holds and this context lacks; returns it."""
        if self.edge_rows is None:
            self.edge_rows = other.edge_rows
        if self.vkeys is None:
            self.vkeys, self.profiles = other.vkeys, other.profiles
            self.adj, self.edges, self.elabels = \
                other.adj, other.edges, other.elabels
        return self


def _decode(record: dict, cls, marks: dict, sets: bool, *state):
    """A graph or closure record to the object (:func:`_adjacency`)."""
    codes, edges = record["v"], record["e"]
    vlut = _lookup(record["vl"], marks, set(codes) if sets else None)
    elut = _lookup(record["el"], marks, set(edges[2::3]) if sets else None)
    adj = _adjacency(len(codes), edges, elut)
    obj = cls.__new__(cls)
    obj.__setstate__(([vlut[code] for code in codes], adj, len(edges) // 3,
                      *state))
    return obj


def decode_graph(record: dict) -> Graph:
    """The graph of a record."""
    return _decode(record, Graph, _GRAPH_LABELS, False, record.get("name"))


def _label_half(degrees: list[int], vmasks: list[int], edge_counts: tuple,
                edge_masks: dict) -> RecordContext:
    """A graph record's context holding the label half alone, from its
    degrees and label masks per vertex and its edge label masks."""
    vgroups: dict[int, int] = {}
    for v, m in enumerate(vmasks):
        vgroups[m] = vgroups.get(m, 0) | 1 << v
    return RecordContext(len(vmasks), degrees, vmasks, tuple(vgroups.items()),
                         edge_counts, edge_masks, WILDCARD_BIT)


def decode_graph_context(record: dict) -> RecordContext:
    """What ``target_context(decode_graph(record))`` gives the Alg. 2
    kernels, compiled straight from the record: one pass over the edge
    triples and one over ``v``, each label table translated once, no
    graph built.  A record :func:`decode_graph` rejects is rejected with
    the same exception class, the checks run in the same order."""
    space = global_labelspace()
    vlut = dict(enumerate(space.vertex_bit(_GRAPH_LABELS.get(x, x))
                          for x in record["vl"]))
    elabels = [_GRAPH_LABELS.get(x, x) for x in record["el"]]
    elut = dict(enumerate(map(space.edge_bit, elabels)))
    codes, edges = record["v"], record["e"]
    if len(edges) % 3:
        raise GraphError("edge array is not (u, v, label) triples")
    n = len(codes)
    nbrs = [0] * n  # every neighbour, whatever the label
    edge_rows: dict[int, list[int]] = {}
    it = iter(edges)
    for u, v, code in zip(it, it, it):
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) out of range")
        if u == v:
            raise GraphError(f"self-loop on vertex {u} not supported")
        bv = 1 << v
        if nbrs[u] & bv:
            raise GraphError(f"duplicate edge ({u}, {v})")
        em = elut[code]
        bu = 1 << u
        nbrs[u] |= bv
        nbrs[v] |= bu
        rows = edge_rows.get(em)
        if rows is None:
            rows = edge_rows[em] = [0] * n
        rows[u] |= bv
        rows[v] |= bu
    # an edge sets two bits of its mask's rows
    ecounts = tuple((em, sum(map(int.bit_count, rows)) // 2)
                    for em, rows in edge_rows.items())
    ctx = _label_half([m.bit_count() for m in nbrs],
                      [vlut[code] for code in codes], ecounts,
                      dict(zip(elabels, elut.values())))
    ctx.edge_rows = edge_rows
    return ctx


def decode_nbm_context(record: dict) -> RecordContext:
    """What ``nbm_context(decode_graph(record))`` holds, compiled straight
    from the record: :func:`_adjacency` builds each vertex's adjacency
    dict as :func:`decode_graph` does, ``LabelSpace.graph_keys`` interns
    the vertex keys from it, as :func:`nbm_context` does a graph's, and
    the label half is read off the same adjacency.  No graph is built,
    nor Alg. 2's half.  The adjacency is handed to the first score only
    (:meth:`RecordContext.scoring`).  A record :func:`decode_graph`
    rejects is rejected with the same exception class, the checks run in
    the same order."""
    space = global_labelspace()
    vids = dict(enumerate(space.vertex_id(_GRAPH_LABELS.get(x, x))
                          for x in record["vl"]))
    elabels = [_GRAPH_LABELS.get(x, x) for x in record["el"]]
    codes, edges = record["v"], record["e"]
    adj = _adjacency(len(codes), edges, dict(enumerate(elabels)))
    ids = [vids[code] for code in codes]
    vkeys, keys = space.graph_keys(ids, adj), space.vertex_keys
    emasks = dict(zip(elabels, map(space.edge_bit, elabels)))
    ecodes, ecounts = edges[2::3], {}
    for code, label in enumerate(elabels):
        count = ecodes.count(code)
        if count:
            em = emasks[label]
            ecounts[em] = ecounts.get(em, 0) + count
    ctx = _label_half(list(map(len, adj)), [1 << i for i in ids],
                      tuple(ecounts.items()), emasks)
    ctx.vkeys, ctx.profiles = vkeys, [keys[k][1] for k in vkeys]
    ctx.adj, ctx.edges, ctx.elabels = adj, edges, elabels
    return ctx


def decode_closure(record: dict) -> GraphClosure:
    """The closure of a record."""
    return _decode(record, GraphClosure, _CLOSURE_LABELS, True)


def encode_node(node: CTreeNode) -> dict:
    """``node`` as a record (a closure loaded and left unchanged goes
    back in the form it came in, so the node rewrites byte-identically)."""
    record: dict = {"leaf": node.is_leaf}
    closure = node.stored_closure()
    if closure is None and node.closure is not None:
        closure = encode_closure(node.closure)
    if closure is not None:
        record["closure"] = closure
    if node.is_leaf:
        record["graphs"] = [[e.graph_id, e.record, e.vhist, e.ehist]
                            for e in node.children]
    else:
        record["children"] = node.children
    return record


def decode_node(record: dict) -> CTreeNode:
    """The node of a record; its closure stays in record form until
    first use."""
    if record["leaf"]:
        children = [StoredEntry(*entry) for entry in record["graphs"]]
    else:
        children = record["children"]
    return CTreeNode(record["leaf"], children, record.get("closure"),
                     decode_closure)


class PagedNodeStore(_ShapedStore):
    """Nodes and graphs as records (see the module docstring) behind a
    buffer pool.

    ``meta`` is the index metadata dict of the owning
    :class:`~repro.ctree.diskindex.DiskCTree`; the store keeps its
    ``root`` / ``height`` / ``leaf_count`` entries current as the tree
    changes shape, the owner decides when it is written and committed.

    **Resident nodes.**  :meth:`load_node` keeps the node it decoded,
    keyed by record id, and returns that same node while it is held: its
    closure is decoded once, and the kernel contexts memoised on the
    closure and the label summaries and graph contexts memoised on its
    leaf entries are built once per handle, not once per query.  The set
    holds at most as many nodes as the buffer pool has frames
    (``cache_pages``); a leaf is evicted before any internal node, least
    recently used first, so a descent wider than the cap cycles through
    the leaf slots and still finds the root and the levels under it.  A resident node is what its
    record holds, but for the node a writer is changing: whoever calls
    :meth:`alloc_node` / :meth:`write_node` / :meth:`free_node` does so
    inside :meth:`writing`, and rewriting or freeing a record evicts its
    node.
    """

    #: how a check finding names a node: by its record
    NODE_NAME = "node record {}"

    def __init__(self, records: RecordStore, meta: dict) -> None:
        super().__init__(meta)
        self.records = records
        #: record id -> resident node, oldest first: (internal, leaves)
        self._resident: tuple[OrderedDict, OrderedDict] = (
            OrderedDict(), OrderedDict())
        #: :meth:`load_node` calls answered from the resident set / by
        #: decoding a record, over the handle's life (the registry's
        #: ``ctree.disk.node_*`` add up every handle of the process)
        self.node_hits = 0
        self.node_loads = 0
        registry = global_registry()
        self._c_node_hits = registry.counter("ctree.disk.node_hits")
        self._c_node_loads = registry.counter("ctree.disk.node_loads")
        #: (hits, loads) of the Alg. 2 and the Alg. 1 memo
        self._c_context = (registry.counter("ctree.disk.context_hits"),
                           registry.counter("ctree.disk.context_loads"))
        self._c_nbm_context = (
            registry.counter("ctree.disk.nbm_context_hits"),
            registry.counter("ctree.disk.nbm_context_loads"))
        self._g_resident = registry.gauge("ctree.disk.nodes_resident")

    def load_record(self, record_id: int) -> dict:
        """One record, JSON-parsed (node, graph or metadata)."""
        return json.loads(self.records.load(record_id))

    def load_node(self, ref: int) -> CTreeNode:
        """The node of record ``ref``: the resident one while it is held,
        otherwise decoded now (its closure stays in record form until
        first use) and kept."""
        for held in self._resident:
            node = held.get(ref)
            if node is not None:
                held.move_to_end(ref)
                node.drop_stored()
                self.node_hits += 1
                self._c_node_hits.value += 1
                return node
        node = decode_node(self.load_record(ref))
        self.node_loads += 1
        self._c_node_loads.value += 1
        inner, leaves = self._resident
        (leaves if node.is_leaf else inner)[ref] = node
        if len(inner) + len(leaves) > self.records.pool.capacity:
            (leaves or inner).popitem(last=False)
        self._g_resident.set(len(inner) + len(leaves))
        return node

    def _evict(self, ref: int) -> None:
        for held in self._resident:
            if held.pop(ref, None) is not None:
                self._g_resident.set(sum(map(len, self._resident)))

    def forget(self) -> None:
        """Drop every resident node — after a compaction, which rewrites
        every record, or a write batch that died part-way."""
        for held in self._resident:
            held.clear()
        self._g_resident.set(0)

    @contextmanager
    def writing(self) -> Iterator[None]:
        """A write batch.  The writer changes a node only to rewrite or
        free it, and :meth:`write_node` / :meth:`free_node` evict it, so
        the next :meth:`load_node` decodes the new record: the nodes the
        batch leaves alone stay resident, and it and the reads after it
        decode a node only once per change.  A batch that dies part-way
        may have changed a node it never wrote: it empties the set."""
        try:
            yield
        except BaseException:
            self.forget()
            raise

    def graph_summary(self, entry: StoredEntry) -> LabelSummary:
        """The entry's stored histograms in the process label space —
        no page is read; built once per entry and label space, unless
        :meth:`load_context` or :meth:`load_nbm_context` has compiled the
        graph's context."""
        space = global_labelspace()
        memo = entry.summary
        if memo is None or memo[0] is not space:
            memo = entry.summary = (space, _stored_summary(entry, space))
        return memo[1]

    @staticmethod
    def entry_matches(entry: StoredEntry, summary: LabelSummary) -> bool:
        """Whether the histograms beside the entry's pointer — what
        :meth:`graph_summary` screens with — count what ``summary`` does.
        They are read afresh, never from the entry's memo: a compiled
        context there came from the graph record itself."""
        try:
            stored = _stored_summary(entry, global_labelspace())
        except TypeError:  # not two flat [label, count, ...] lists
            return False
        return stored.vhist == summary.vhist and stored.ehist == summary.ehist

    def load_graph(self, entry: StoredEntry) -> Graph:
        """Decode the graph record a leaf entry points at."""
        return decode_graph(self.load_record(entry.record))

    def _memoised(self, entry: StoredEntry, half: str, decode,
                  counters: tuple) -> RecordContext:
        """The entry's context with ``half`` (``edge_rows``: Alg. 2's,
        ``vkeys``: Alg. 1's) compiled, once per entry and label space.
        It takes the entry's ``summary`` slot, whose
        :class:`LabelSummary` it is: the first half compiled comes with
        the label half, the other is compiled from one more record read
        and adopted (:meth:`RecordContext.adopt`)."""
        space, memo = global_labelspace(), entry.summary
        ctx = memo[1] if memo is not None and memo[0] is space and \
            isinstance(memo[1], RecordContext) else None
        hits, loads = counters
        if ctx is not None and getattr(ctx, half) is not None:
            hits.value += 1
            return ctx
        loads.value += 1
        compiled = decode(self.load_record(entry.record))
        if ctx is None:
            entry.summary = (space, compiled)
            return compiled
        return ctx.adopt(compiled)

    def load_context(self, entry: StoredEntry) -> TargetContext:
        """The Alg. 2 target context of the graph record a leaf entry
        points at, compiled straight from the record (no graph is built)
        and memoised on the entry (:meth:`_memoised`)."""
        return self._memoised(entry, "edge_rows", decode_graph_context,
                              self._c_context)

    def load_nbm_context(self, entry: StoredEntry) -> TargetContext:
        """The Alg. 1 context of the graph record a leaf entry points at,
        compiled straight from the record (no graph is built) and
        memoised on the entry (:meth:`_memoised`) without its adjacency
        dicts: each call gets a view with them rebuilt
        (:meth:`RecordContext.scoring`)."""
        return self._memoised(entry, "vkeys", decode_nbm_context,
                              self._c_nbm_context).scoring()

    def alloc_node(self, node: CTreeNode) -> int:
        """Store a new node record; returns its id."""
        self._count_leaf(node, +1)
        return self.records.store(dump_record(encode_node(node)))

    def write_node(self, ref: int, node: CTreeNode) -> None:
        """Rewrite a node record in place (its id is stable)."""
        self._evict(ref)
        self.records.update(ref, dump_record(encode_node(node)))

    def free_node(self, ref: int, node: CTreeNode) -> None:
        """Free a node record's slot (and any page it leaves empty)."""
        self._evict(ref)
        self.records.delete(ref)
        self._count_leaf(node, -1)

    def alloc_graph(self, graph_id: int, graph: Graph) -> StoredEntry:
        """Store a graph record; returns the leaf entry pointing at it,
        histograms beside the pointer."""
        record = encode_graph(graph)
        return StoredEntry(graph_id, self.records.store(dump_record(record)),
                           *record_histograms(record))

    def free_graph(self, entry: StoredEntry) -> None:
        """Free a graph record's slot (and any page it leaves empty)."""
        self.records.delete(entry.record)

    @contextmanager
    def metered(self, stats_cls, database_size: int, span):
        """Yield one query's stats record, of the class that counts page
        I/O; on exit fill in the buffer-pool hits and misses the query
        caused and the node loads it had answered from the resident set
        or by decoding (record and span)."""
        pool = self.records.pool
        before = (pool.hits, pool.misses, self.node_hits, self.node_loads)
        disk_cls = DiskKnnStats if stats_cls is KnnStats else DiskQueryStats
        stats = disk_cls(database_size=database_size)
        span.set(disk=True)
        yield stats
        after = (pool.hits, pool.misses, self.node_hits, self.node_loads)
        for name, start, end in zip(PAGE_IO, before, after):
            setattr(stats, name, end - start)
        span.set(**{name: getattr(stats, name) for name in PAGE_IO})
