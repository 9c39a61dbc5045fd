"""The Closure-tree (Section 5).

A C-tree is a balanced tree in the R-tree family: leaves hold database
graphs, every node is summarized by the graph closure of its children, and
nodes have between ``min_fanout`` and ``max_fanout`` children (except the
root).  Insertion descends by a child-selection policy, enlarging closures
along the path; overflowing nodes split by a partitioning policy; deletion
shrinks (or soundly keeps) closures and resolves underflow by merging into
or redistributing with a sibling.

:class:`CTreeCore` is the one implementation of that maintenance logic
and of the one write surface over it — :meth:`~CTreeCore.extend`,
:meth:`~CTreeCore.delete_many` and :meth:`~CTreeCore.compact`, batches of
graphs drawing on one ``Random(seed)`` each.  It runs over a *node store*
(:mod:`repro.ctree.store`) and never asks which: :class:`CTree` is the
core over live objects, :class:`~repro.ctree.diskindex.DiskCTree` the
core over a page file plus group commit and recovery.  From one seed,
the same batches grow the same tree on either store.

All operations take polynomial time — the expensive primitive is the
heuristic graph mapping (NBM by default) used to union closures and to
measure closure distance during splits.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from operator import itemgetter
from typing import Iterable, Iterator, Optional

from repro.exceptions import ConfigError, IndexError_, PersistenceError
from repro.graphs.closure import GraphClosure, as_closure
from repro.graphs.graph import Graph
from repro.graphs.labelspace import LabelSummary, label_context
from repro.matching.edit_distance import MAPPING_METHODS
from repro.matching.pseudo_iso import Level, pseudo_subgraph_isomorphic
from repro.obs import trace
from repro.obs.metrics import global_registry
from repro.ctree.node import (
    CTreeNode,
    Mapper,
    fold_closure,
    fold_closure_set,
)
from repro.ctree.policies import (
    choose_merge_sibling,
    resolve_closure_insert_policy,
    resolve_closure_split_policy,
)
from repro.ctree.store import BAD_RECORD, MemoryNodeStore

#: Paper default: m = 20, M = 2m - 1.
DEFAULT_MIN_FANOUT = 20

#: Compaction fires when live entries fill less than this fraction of
#: the leaf level's capacity (``graph_count / (leaf_count * max_fanout)``).
DEFAULT_MIN_OCCUPANCY = 0.4

#: ... or when the tree stands more than this many levels above the
#: height a fresh bulk load of the same graph count would reach.
DEFAULT_HEIGHT_SLACK = 1


class _LazyClosures:
    """Child closures of one node, loaded on first access.

    Handed to insert policies during descent so a short-circuiting
    policy (``min_volume`` returns at the first zero volume increase)
    never pays to load the siblings it skipped.  Accesses are cached: a
    policy that does examine every child (``min_overlap``) loads each
    one exactly once, and the descent reuses the chosen child's node.
    """

    def __init__(self, store, refs: list):
        self._store = store
        self._refs = refs
        self._nodes: dict = {}

    def node(self, i: int) -> CTreeNode:
        node = self._nodes.get(i)
        if node is None:
            node = self._nodes[i] = self._store.load_node(self._refs[i])
        return node

    def __len__(self) -> int:
        return len(self._refs)

    def __getitem__(self, i: int) -> GraphClosure:
        return self.node(i).closure  # IndexError past the end ends iteration


class CTreeCore:
    """Section 5 over a node store: configuration, the insert / split /
    delete-with-underflow algorithms, the write batches that run them,
    and store-agnostic walks.

    Graph ids come from the store's ``next_id`` watermark and the live
    count is its ``graph_count``.  A subclass varies two things only: how
    a batch closes (:meth:`_batch`) and how a re-bulk-loaded tree takes
    this one's place (:meth:`_install`).  ``_METRICS`` prefixes the
    maintenance counters (``<prefix>.incremental_inserts``, ``.deletes``,
    ``.compactions``, ``.splits``, ``.closure_shrinks``,
    ``.underflow_merges``, ``.underflow_redistributes``) and the
    ``<prefix>.extend`` / ``.delete`` / ``.compact`` / ``.split`` spans.
    """

    _METRICS = "ctree"

    def __init__(
        self,
        store,
        min_fanout: int = DEFAULT_MIN_FANOUT,
        max_fanout: Optional[int] = None,
        mapping_method: str = "nbm",
        insert_policy: str = "min_volume",
        split_policy: str = "linear",
    ) -> None:
        if min_fanout < 2:
            raise ConfigError(f"min_fanout must be >= 2, got {min_fanout}")
        if max_fanout is None:
            max_fanout = 2 * min_fanout - 1
        if (max_fanout + 1) // 2 < min_fanout:
            raise ConfigError(
                f"(max_fanout + 1) // 2 must be >= min_fanout "
                f"(got m={min_fanout}, M={max_fanout})"
            )
        if mapping_method not in MAPPING_METHODS:
            raise ConfigError(f"unknown mapping method {mapping_method!r}")
        self.store = store
        self.min_fanout = min_fanout
        self.max_fanout = max_fanout
        self.mapping_method = mapping_method
        self.mapper: Mapper = MAPPING_METHODS[mapping_method]
        self._choose = resolve_closure_insert_policy(insert_policy)
        self._partition = resolve_closure_split_policy(split_policy)
        self.insert_policy_name = insert_policy
        self.split_policy_name = split_policy

    def config(self) -> dict:
        """The constructor arguments, as saved indexes record them."""
        return {
            "min_fanout": self.min_fanout,
            "max_fanout": self.max_fanout,
            "mapping_method": self.mapping_method,
            "insert_policy": self.insert_policy_name,
            "split_policy": self.split_policy_name,
        }

    # ------------------------------------------------------------------
    # Walks
    # ------------------------------------------------------------------
    def nodes(self) -> Iterator[tuple[object, CTreeNode]]:
        """Every ``(ref, node)`` of the tree (graph payloads are never
        loaded — membership and shape checks stay cheap)."""
        stack = [self.store.root]
        while stack:
            ref = stack.pop()
            node = self.store.load_node(ref)
            yield ref, node
            if not node.is_leaf:
                stack.extend(node.children)

    def graph_ids(self) -> Iterator[int]:
        """Every stored graph id, from a node-only walk."""
        for _, node in self.nodes():
            if node.is_leaf:
                for entry in node.children:
                    yield entry.graph_id

    def iter_graphs(self) -> Iterator[tuple[int, Graph]]:
        """Yield ``(graph_id, graph)`` for every stored graph (full scan)."""
        for _, node in self.nodes():
            if node.is_leaf:
                for entry in node.children:
                    yield (entry.graph_id, self.store.load_graph(entry))

    def find_graphs(self, graph_ids) -> dict[int, Graph]:
        """The stored graphs with the given ids: one node-only walk, and
        only the matching entries' payloads are loaded."""
        wanted = set(graph_ids)
        return {
            entry.graph_id: self.store.load_graph(entry)
            for _, node in self.nodes() if node.is_leaf
            for entry in node.children if entry.graph_id in wanted
        }

    def _member_closures(self, is_leaf: bool, entries: list) -> list:
        """The closures summarizing a node's members (graphs of a leaf,
        children of an inner node), read back from the store."""
        if is_leaf:
            return [as_closure(self.store.load_graph(e)) for e in entries]
        return [self.store.load_node(ref).closure for ref in entries]

    def _counter(self, name: str):
        return global_registry().counter(f"{self._METRICS}.{name}")

    def __len__(self) -> int:
        return self.store.meta["graph_count"]

    # ------------------------------------------------------------------
    # Write batches
    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        """Raise if the index can no longer be written (a memory tree
        always can)."""

    @contextmanager
    def _batch(self, kind: str, graphs: int) -> Iterator[None]:
        """One ``extend`` / ``delete`` batch of ``graphs`` graphs, as a
        span; a memory tree has nothing to close it with."""
        with trace.span(f"{self._METRICS}.{kind}", graphs=graphs):
            yield

    def _install(self, tree: "CTree") -> None:
        """Make a re-bulk-loaded tree this one: in memory, take its
        store (root, shape and watermark)."""
        self.store = tree.store

    def extend(self, graphs: Iterable[Graph], seed: int = 0) -> list[int]:
        """Add a batch of graphs incrementally; returns their new ids.

        Each graph is one Section 5.2/5.3 insert (:meth:`_insert_one`):
        it dirties only its root-to-leaf path and any split siblings.
        The batch draws on one ``Random(seed)`` and closes as one
        :meth:`_batch` (on disk: one group commit).  Ids come from the
        monotone ``next_id`` watermark, never from the live count: after
        deletes the live ids are sparse, and an id once issued is never
        issued again.

        Counters: each graph bumps ``<prefix>.incremental_inserts``, each
        node split ``<prefix>.splits``.
        """
        self._check_open()
        new_graphs = list(graphs)
        if not new_graphs:
            return []
        rng = random.Random(seed)
        meta = self.store.meta
        first_new = meta["next_id"]
        inserts = self._counter("incremental_inserts")
        with self._batch("extend", len(new_graphs)):
            for offset, graph in enumerate(new_graphs):
                self._insert_one(first_new + offset, graph, rng)
                inserts.value += 1
            meta["graph_count"] += len(new_graphs)
            meta["next_id"] = first_new + len(new_graphs)
        return list(range(first_new, first_new + len(new_graphs)))

    def delete_many(self, graph_ids: Iterable[int], seed: int = 0,
                    auto_compact: bool = True) -> list[Graph]:
        """Remove a batch of graphs incrementally; returns them in request
        order.

        Each id is one Section 5.4 delete (:meth:`_delete_one`): the leaf
        entry is removed and its graph freed, ancestor closures shrink
        only where the removed graph was load-bearing (a loose closure
        stays sound), and underflow merges into or redistributes with a
        sibling; a root left with one child collapses.  The batch draws
        on one ``Random(seed)`` and closes as one :meth:`_batch`.

        Counters: each graph bumps ``<prefix>.deletes``, each underflow
        merge ``<prefix>.underflow_merges``, each redistribution
        ``<prefix>.underflow_redistributes``, each recomputed closure
        ``<prefix>.closure_shrinks``.

        With ``auto_compact=True`` (default) the batch is followed by
        :meth:`compact`, which repacks the tree **only** when
        :meth:`compaction_needed` finds occupancy or height degraded;
        ``auto_compact=False`` leaves even a hollowed-out tree in place.

        Raises :class:`~repro.exceptions.IndexError_` — before any
        mutation — if an id is absent or requested twice.
        """
        self._check_open()
        ids = list(graph_ids)
        if not ids:
            return []
        if len(set(ids)) != len(ids):
            raise IndexError_("duplicate graph ids in delete batch")
        live = set(self.graph_ids())
        missing = [gid for gid in ids if gid not in live]
        if missing:
            raise IndexError_(f"no graph with id {missing[0]}")
        rng = random.Random(seed)
        deletes = self._counter("deletes")
        removed: list[Graph] = []
        with self._batch("delete", len(ids)):
            for gid in ids:
                removed.append(self._delete_one(gid, rng))
                deletes.value += 1
            self.store.meta["graph_count"] -= len(ids)
        if auto_compact:
            self.compact(seed=seed)
        return removed

    @property
    def occupancy(self) -> float:
        """Live entries as a fraction of the leaf level's capacity
        (``graph_count / (leaf_count * max_fanout)``) — the quantity the
        automatic compaction trigger watches."""
        leaves = max(self.store.meta["leaf_count"], 1)
        return len(self) / (leaves * self.max_fanout)

    def _bulk_load_height(self, count: int) -> int:
        """The height a fresh, fully packed bulk load of ``count``
        graphs could reach (every level at ``max_fanout``) — the
        baseline the height-degradation trigger compares against, with
        ``DEFAULT_HEIGHT_SLACK`` levels of tolerance on top."""
        height = 0
        while count > self.max_fanout:
            count = -(-count // self.max_fanout)
            height += 1
        return height

    def compaction_needed(self) -> Optional[str]:
        """Why the tree should be repacked, or None if it is healthy.

        Two degradation signals, both read from the store's shape
        metadata: leaf occupancy below ``DEFAULT_MIN_OCCUPANCY``, or a
        height more than ``DEFAULT_HEIGHT_SLACK`` levels above what a
        fully packed bulk load of the same graph count would build.
        """
        self._check_open()
        if len(self) == 0:
            return None
        if (self.store.meta["leaf_count"] > 1
                and self.occupancy < DEFAULT_MIN_OCCUPANCY):
            return (f"occupancy {self.occupancy:.2f} below "
                    f"{DEFAULT_MIN_OCCUPANCY:.2f}")
        target = self._bulk_load_height(len(self))
        height = self.store.height
        if height > target + DEFAULT_HEIGHT_SLACK:
            return (f"height {height} above bulk-load height {target} "
                    f"+ slack {DEFAULT_HEIGHT_SLACK}")
        return None

    def compact(self, seed: int = 0, force: bool = False) -> Optional[str]:
        """Repack a degraded tree by re-bulk-loading the live graphs
        (ids and the id watermark preserved); returns the trigger
        reason, or None when no compaction was needed.

        Runs only when :meth:`compaction_needed` reports a reason
        (``force=True`` overrides), so calling it after every delete
        batch — which ``auto_compact=True`` does — is cheap.  Each run
        bumps ``<prefix>.compactions``.
        """
        from repro.ctree.bulkload import bulk_load

        self._check_open()
        if len(self) == 0:
            return None
        reason = "forced" if force else self.compaction_needed()
        if reason is None:
            return None
        with trace.span(f"{self._METRICS}.compact", reason=reason,
                        graphs=len(self)):
            items = sorted(self.iter_graphs(), key=itemgetter(0))
            tree = bulk_load([graph for _, graph in items], seed=seed,
                             **self.config())
            # bulk_load numbers graphs by input position; remap each leaf
            # entry back to the id the graph already holds.
            for entry in tree.root.iter_leaf_entries():
                entry.graph_id = items[entry.graph_id][0]
            tree.store.meta["next_id"] = self.store.meta["next_id"]
            self._install(tree)
        self._counter("compactions").inc()
        return reason

    # ------------------------------------------------------------------
    # Insertion (Section 5.2) and splitting (Section 5.3)
    # ------------------------------------------------------------------
    def _insert_one(self, graph_id: int, graph: Graph,
                    rng: random.Random) -> None:
        """One Section-5 insert: descend via the insert policy, extend
        every closure on the path, split bottom-up on overflow.  Only
        the root-to-leaf path nodes (and any split siblings) are written.

        Two economies keep this flat as the database grows: children are
        loaded lazily so a short-circuiting policy never loads the
        siblings it skipped, and the policy's enlarged closure for the
        chosen child is reused as that level's fold instead of mapping
        the graph in a second time.
        """
        store, mapper = self.store, self.mapper
        path = [(store.root, store.load_node(store.root))]
        # graph already folded into the node's closure, per path level
        folds: list[Optional[GraphClosure]] = [None]
        while not path[-1][1].is_leaf:
            refs = path[-1][1].children
            closures = _LazyClosures(store, refs)
            index, enlarged = self._choose(closures, graph, mapper, rng)
            path.append((refs[index], closures.node(index)))
            folds.append(enlarged)

        path[-1][1].children.append(store.alloc_graph(graph_id, graph))
        dirty = [False] * len(path)
        dirty[-1] = True
        for i, (_, node) in enumerate(path):
            folded = folds[i]
            if folded is None:
                folded = fold_closure(node.closure, graph, mapper)
            if folded != node.closure:
                node.closure = folded
                dirty[i] = True

        sibling = None
        for i in range(len(path) - 1, -1, -1):
            ref, node = path[i]
            if sibling is not None:
                node.children.append(sibling)
                sibling = None
                dirty[i] = True
            if len(node.children) > self.max_fanout:
                sibling = self._split_node(node, rng)
                dirty[i] = True
            # Write before the parent is processed: a parent split reads
            # child closures back from the store.  Ancestors whose
            # closure already absorbed the graph are left untouched, so
            # a saturated insert dirties only the leaf end of the path.
            if dirty[i]:
                store.write_node(ref, node)
            if sibling is not None and i == 0:
                self._grow_root(ref, node, sibling, height=len(path))
                sibling = None

    def _split_node(self, node: CTreeNode, rng: random.Random):
        """Split an overflowing node in place (Section 5.3): the first
        partition group stays in ``node``, the second moves to a freshly
        allocated sibling; both summaries are re-folded from their
        members.  Returns the sibling's reference."""
        entries = node.children
        closures = self._member_closures(node.is_leaf, entries)
        with trace.span(f"{self._METRICS}.split", fanout=len(entries),
                        leaf=node.is_leaf):
            group1, group2 = self._partition(closures, self.mapper, rng,
                                             self.min_fanout)
            if not group1 or not group2:
                raise IndexError_("split policy produced an empty group")
            sibling = CTreeNode(node.is_leaf, [entries[i] for i in group2])
            sibling.closure = fold_closure_set(
                (closures[i] for i in group2), self.mapper)
            node.children = [entries[i] for i in group1]
            node.closure = fold_closure_set(
                (closures[i] for i in group1), self.mapper)
            self._counter("splits").value += 1
            return self.store.alloc_node(sibling)

    def _grow_root(self, old_ref, old_root: CTreeNode, sibling_ref,
                   height: int) -> None:
        """A root split reached the top: push a new root above the two
        halves and grow the tree by one level."""
        new_root = CTreeNode(False, [old_ref, sibling_ref])
        new_root.closure = fold_closure(
            old_root.closure, self.store.load_node(sibling_ref).closure,
            self.mapper)
        self.store.set_root(self.store.alloc_node(new_root), height)

    # ------------------------------------------------------------------
    # Deletion (Section 5.4)
    # ------------------------------------------------------------------
    def _find_path(self, graph_id: int) -> list[tuple[object, CTreeNode]]:
        """The root-to-leaf path of ``(ref, node)`` pairs ending at the
        leaf holding ``graph_id``.

        Deletion cannot descend by closure pruning (an id says nothing
        about content), so this is a depth-first scan — worst case one
        node-level pass, no graph payloads loaded.
        """
        stack: list[tuple[object, list]] = [(self.store.root, [])]
        while stack:
            ref, ancestors = stack.pop()
            node = self.store.load_node(ref)
            path = ancestors + [(ref, node)]
            if not node.is_leaf:
                stack.extend((child, path) for child in node.children)
            elif any(e.graph_id == graph_id for e in node.children):
                return path
        raise IndexError_(f"no graph with id {graph_id}")

    def _delete_one(self, graph_id: int, rng: random.Random) -> Graph:
        """One Section-5.4 delete: drop the leaf entry, free the graph,
        shrink-or-keep the path closures, resolve underflow bottom-up,
        collapse a trivial root."""
        path = self._find_path(graph_id)
        entries = path[-1][1].children
        index = next(i for i, e in enumerate(entries)
                     if e.graph_id == graph_id)
        graph = self.store.load_graph(entries[index])
        summary = self.store.graph_summary(entries[index])
        self.store.free_graph(entries.pop(index))
        self._shrink_path(path, graph, summary, rng)
        self._collapse_root(len(path) - 1)
        return graph

    def _shrink_path(self, path: list, graph: Graph, summary: LabelSummary,
                     rng: random.Random) -> None:
        """Walk the delete path bottom-up: remove dead children, handle
        underflow via merge-or-redistribute, and shrink each closure the
        removed graph was load-bearing for.  Every modified node is
        written before its parent is processed (a parent refold reads
        child closures back from the store), mirroring the insert path.
        """
        store = self.store
        drop = None  # freed child to unlink at this level
        for i in range(len(path) - 1, -1, -1):
            ref, node = path[i]
            dirty = i == len(path) - 1  # the leaf already lost its entry
            if drop is not None:
                node.children.remove(drop)
                drop = None
                dirty = True
            entries = node.children
            if i > 0 and not entries:
                # The node died: free it and unlink it from the parent.
                store.free_node(ref, node)
                drop = ref
                continue
            if not entries:
                # Empty root leaf (delete-to-empty): no members, no
                # closure.
                if node.closure is not None:
                    node.closure = None
                    dirty = True
            elif node.closure is not None and self._may_shrink(
                    graph, summary, node):
                refolded = fold_closure_set(
                    self._member_closures(node.is_leaf, entries),
                    self.mapper)
                if refolded != node.closure:
                    node.closure = refolded
                    self._counter("closure_shrinks").value += 1
                    dirty = True
            if i > 0 and len(entries) < self.min_fanout and \
                    len(path[i - 1][1].children) > 1:
                # Shrink ran first, so a merge folds the *tightened*
                # closure into its sibling.  The helper writes every
                # node it leaves alive; an unwritten `dirty` state is
                # either freed (merge) or rewritten (redistribute).
                if self._merge_or_redistribute(path, i, rng):
                    drop = ref
                continue
            if dirty:
                store.write_node(ref, node)

    @staticmethod
    def _may_shrink(graph: Graph, summary: LabelSummary,
                    node: CTreeNode) -> bool:
        """Whether the removed graph could have been load-bearing for
        this node's closure: it reached the closure's vertex or edge
        count, or attained one of its histogram bounds.  A ``False``
        proves a recompute from the surviving children cannot tighten
        anything, so the ancestor is skipped (keeping the closure is
        always sound — Lemma 1 only needs containment of the surviving
        graphs)."""
        closure = node.closure
        if graph.num_vertices >= closure.num_vertices:
            return True
        if graph.num_edges >= closure.num_edges:
            return True
        return summary.attains(label_context(closure))

    def _merge_or_redistribute(self, path: list, i: int,
                               rng: random.Random) -> bool:
        """Resolve one underflowing node against a policy-chosen sibling.

        The sibling is the one absorbing the underflowing closure at
        minimum volume growth (:func:`choose_merge_sibling`).  If the
        union fits one node the underflowing node merges into the
        sibling (returns True — the caller unlinks and this method frees
        the node); otherwise the union is repartitioned with the
        configured split policy, leaving both halves within bounds.
        """
        store, mapper = self.store, self.mapper
        ref, node = path[i]
        siblings = [c for c in path[i - 1][1].children if c != ref]
        lazy = _LazyClosures(store, siblings)
        choice, merged = choose_merge_sibling(lazy, node.closure, mapper,
                                              rng)
        sibling_ref, sibling = siblings[choice], lazy.node(choice)
        entries = sibling.children + node.children
        if len(entries) <= self.max_fanout:
            sibling.children = entries
            sibling.closure = merged
            store.write_node(sibling_ref, sibling)
            store.free_node(ref, node)
            self._counter("underflow_merges").inc()
            return True
        # The union overflows one node: repartition it instead.  The
        # combined size is >= 2*min_fanout here (the sibling alone held
        # > max_fanout - min_fanout >= min_fanout entries), so every
        # split policy's halves respect the minimum.
        closures = self._member_closures(node.is_leaf, entries)
        group1, group2 = self._partition(closures, mapper, rng,
                                         self.min_fanout)
        if not group1 or not group2:
            raise IndexError_("split policy produced an empty group")
        for target_ref, target, group in ((sibling_ref, sibling, group1),
                                          (ref, node, group2)):
            target.children = [entries[j] for j in group]
            target.closure = fold_closure_set(
                (closures[j] for j in group), mapper)
            store.write_node(target_ref, target)
        self._counter("underflow_redistributes").inc()
        return False

    def _collapse_root(self, height: int) -> None:
        """Shed trivial roots after a delete: an internal root with one
        child hands the root to that child (height shrinks); an internal
        root whose children all died becomes an empty leaf."""
        store = self.store
        ref = store.root
        node = store.load_node(ref)
        while not node.is_leaf and len(node.children) == 1:
            store.free_node(ref, node)
            ref, height = node.children[0], height - 1
            store.set_root(ref, height)
            node = store.load_node(ref)
        if not node.is_leaf and not node.children:
            store.free_node(ref, node)
            store.set_root(store.alloc_node(CTreeNode(is_leaf=True)), 0)

    # ------------------------------------------------------------------
    # Soundness: the one walk validate() and fsck run
    # ------------------------------------------------------------------
    #: where the findings say ``len(self)`` and the height are recorded
    _META = "catalog"

    def check(self, level: Optional[Level] = None) -> list[str]:
        """Walk the tree once and list every violation of the invariants
        queries and maintenance rely on (:meth:`validate` raises on them,
        ``DiskCTree.fsck`` reports them).

        Shape: at most ``max_fanout`` children per node, at least
        ``min_fanout`` below the root, two under an internal root, a
        closure on every non-empty node, every leaf at the recorded
        height, as many leaves as recorded, each graph id once and
        ``len(self)`` of them.  Lemma 1, on the :class:`LabelSummary`
        Alg. 3 screens with: each closure on a graph's root-to-leaf path
        dominates its label histogram (closures need not dominate each
        other, nor be tight)
        and, with ``level`` set, admits it pseudo sub-isomorphically at
        that level — a polynomial test any real embedding passes, where
        Ullmann could blow up on ε-rich closures.  The histogram a leaf
        entry carries for Alg. 3's screen is its graph's own.  A node or
        graph the store cannot read back is a finding.
        """
        store = self.store
        errors: list[str] = []
        issue = errors.append
        ids: set[int] = set()
        leaves = 0
        stack: list = [(store.root, 0, [])]
        while stack:
            ref, depth, lineage = stack.pop()
            try:
                node = store.load_node(ref)
            except PersistenceError as exc:
                issue(str(exc))
                continue
            leaves += node.is_leaf
            name = store.NODE_NAME.format(ref)
            fanout = len(node.children)
            try:
                if node.closure is not None:
                    lineage = lineage + [node]
                elif fanout:
                    issue(f"{name}: non-empty node without a closure")
            except BAD_RECORD as exc:
                issue(f"{name}: bad closure: {exc!r}")
            if fanout > self.max_fanout:
                issue(f"{name}: fanout {fanout} exceeds the configured "
                      f"maximum {self.max_fanout}")
            if depth and fanout < self.min_fanout:
                issue(f"{name}: fanout {fanout} below the configured "
                      f"minimum {self.min_fanout}")
            elif not depth and not node.is_leaf and fanout < 2:
                issue(f"{name}: internal root with {fanout} child(ren)")
            if not node.is_leaf:
                stack.extend((child, depth + 1, lineage)
                             for child in node.children)
                continue
            if depth != store.height:
                issue(f"{name}: leaf at depth {depth}, {self._META} says "
                      f"height {store.height}")
            wheres = [f"ancestor at depth {i}"
                      for i in range(len(lineage) - 1)] + ["leaf"]
            for entry in node.children:
                gid = entry.graph_id
                if gid in ids:
                    issue(f"graph id {gid} appears in more than one leaf")
                ids.add(gid)
                try:
                    graph = store.load_graph(entry)
                except PersistenceError as exc:
                    issue(str(exc))
                    continue
                summary = label_context(graph)
                if not store.entry_matches(entry, summary):
                    issue(f"graph {gid}: leaf entry histogram differs from "
                          f"its graph record's")
                for ancestor, where in zip(lineage, wheres):
                    if not label_context(ancestor.closure).dominates(
                            summary):
                        issue(f"graph {gid}: {where} closure does not "
                              f"dominate its label histogram")
                    elif level is not None and not pseudo_subgraph_isomorphic(
                            graph, ancestor.closure, level):
                        issue(f"graph {gid}: not pseudo-contained in the "
                              f"{where} closure")
        if len(ids) != len(self):
            issue(f"{self._META} says {len(self)} graphs, tree holds "
                  f"{len(ids)}")
        if store.meta["leaf_count"] != leaves:
            issue(f"{self._META} says {store.meta['leaf_count']} leaves, "
                  f"tree holds {leaves}")
        return errors

    def validate(self, deep: bool = False) -> None:
        """Raise ``AssertionError`` listing every violation :meth:`check`
        finds; ``deep=True`` adds the pseudo-containment test at the
        convergence level.  The raise is explicit, so ``python -O``
        checks as much as a plain run."""
        errors = self.check("max" if deep else None)
        if errors:
            raise AssertionError("\n".join(errors))


class CTree(CTreeCore):
    """A Closure-tree over a dynamic set of labeled graphs, in memory.

    Graphs enter by :func:`~repro.ctree.bulkload.bulk_load` or
    :meth:`extend`, leave by :meth:`delete_many`, and are repacked by
    :meth:`compact` — the write surface a disk index has.

    Parameters
    ----------
    min_fanout, max_fanout:
        Node capacity bounds ``m`` and ``M``.  Defaults follow the paper:
        ``m = 20``, ``M = 2m - 1``.  ``(M + 1) // 2 >= m`` is required so
        that an even split never underflows.
    mapping_method:
        Heuristic mapping used for closure construction and closure
        distance: ``"nbm"`` (default) or ``"bipartite"``.
    insert_policy:
        ``"min_volume"`` (default), ``"min_overlap"``, or ``"random"``.
    split_policy:
        ``"linear"`` (default), ``"optimal"``, or ``"random"``.
    """

    def __init__(
        self,
        min_fanout: int = DEFAULT_MIN_FANOUT,
        max_fanout: Optional[int] = None,
        mapping_method: str = "nbm",
        insert_policy: str = "min_volume",
        split_policy: str = "linear",
    ) -> None:
        super().__init__(MemoryNodeStore(), min_fanout, max_fanout,
                         mapping_method, insert_policy, split_policy)

    @property
    def root(self) -> CTreeNode:
        """The live root node."""
        return self.store.root

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    def __contains__(self, graph_id: int) -> bool:
        return any(gid == graph_id for gid in self.graph_ids())

    def get(self, graph_id: int) -> Graph:
        try:
            return self.find_graphs([graph_id])[graph_id]
        except KeyError:
            raise IndexError_(f"no graph with id {graph_id}") from None

    def graphs(self) -> Iterator[tuple[int, Graph]]:
        """Every ``(graph_id, graph)``, in id order."""
        return iter(sorted(self.iter_graphs(), key=itemgetter(0)))

    def height(self) -> int:
        return self.store.height

    def node_count(self) -> int:
        return self.root.count_nodes()

    # ------------------------------------------------------------------
    # The surface every servable index shares (repro.server.ServableIndex)
    # ------------------------------------------------------------------
    #: the server's name for a tree in this process; it has no saved
    #: form of its own (:mod:`repro.ctree.saved`)
    kind = "memory"

    def describe(self) -> dict:
        """A JSON-friendly summary (the server's ``GET /`` index block)."""
        return {"graphs": len(self)}

    def summary(self) -> str:
        """One line for the serve banner and ``/healthz``."""
        return f"memory index, |D|={len(self)}"

    def health(self) -> tuple[bool, dict]:
        """The ``/healthz`` probe: a non-empty tree's root has children
        (a tree of at most M graphs is one leaf root, of height 0)."""
        return (len(self) == 0 or bool(self.root.children),
                {"probe": "memory", "graphs": len(self)})

    def close(self) -> None:
        """Nothing to release: the tree lives in this process."""

    def __repr__(self) -> str:
        return (
            f"<CTree |D|={len(self)} height={self.height()} "
            f"nodes={self.node_count()} m={self.min_fanout} M={self.max_fanout}>"
        )


def tree_share(store, share: int, shares: int) -> Optional[frozenset]:
    """Share ``share`` of ``shares`` disjoint shares of a tree, as the
    paths (child positions from the root) of the subtrees it skips — or
    ``None`` when no level of the tree is wide enough.

    At the first level with at least ``2 * shares`` children, child ``i``
    in level order belongs to share ``i % shares``.  A share walks the
    levels above that one whole and skips the other shares' subtrees.
    Level order is a function of the tree, so every process that holds
    the same tree computes the same shares.  Both query kinds split by
    it: Alg. 3 (:func:`~repro.ctree.subgraph_query.subgraph_share`) and
    Alg. 4 (:func:`~repro.ctree.similarity_query.knn_share`).
    """
    level = [((), store.load_node(store.root))]
    while True:
        paths = [path + (i,) for path, node in level
                 for i in range(len(node.children))]
        if len(paths) >= 2 * shares:
            return frozenset(path for i, path in enumerate(paths)
                             if i % shares != share)
        if level[0][1].is_leaf:
            return None
        level = [(path + (i,), store.load_node(ref)) for path, node in level
                 for i, ref in enumerate(node.children)]
