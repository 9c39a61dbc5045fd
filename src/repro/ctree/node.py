"""C-tree nodes (Section 5.1).

A node is a graph closure of its children.  Leaf nodes hold database graphs
(wrapped in :class:`LeafEntry` so each carries its database id); internal
nodes hold child nodes.  Every node holds its closure — the summary the
query processors prune with (its label histogram is the closure's
``label_context``, memoised on the closure).

The same node class serves both node stores (:mod:`repro.ctree.store`):
in memory ``children`` are the live child objects; a node loaded from a
page file holds child *references* (record ids, stored leaf entries) and
its closure still in record form, decoded by the store's codec on first
use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Union

from repro.graphs.closure import GraphClosure, GraphLike, as_closure
from repro.graphs.graph import Graph

#: A mapper takes two graph-like objects and returns a GraphMapping.
Mapper = Callable[[GraphLike, GraphLike], "object"]


def fold_closure(
    base: Optional[GraphClosure], addition: GraphLike, mapper: Mapper
) -> GraphClosure:
    """Union one more graph-like object into a closure (the Section 3
    incremental closure step).

    Returns a *new* closure covering both ``base`` and ``addition``
    (``base is None`` starts a fresh closure).  This is the single
    summary-maintenance primitive behind bulk loading and the Section 5
    insert path.
    """
    added = as_closure(addition)
    if base is None:
        return added.copy()
    return mapper(base, added).closure()


def fold_closure_set(
    items: Iterable[GraphLike], mapper: Mapper
) -> Optional[GraphClosure]:
    """Fold a whole sequence of graph-like objects into one closure
    (``None`` for an empty sequence).

    This is the recompute-from-members primitive: after a removal, a
    node's summary is re-derived by folding the surviving children in
    order, exactly as a split re-folds its two groups — so
    shrink-after-delete and split produce identical closures for
    identical member lists.
    """
    closure: Optional[GraphClosure] = None
    for item in items:
        closure = fold_closure(closure, item, mapper)
    return closure


@dataclass
class LeafEntry:
    """A database graph stored at a leaf."""

    graph_id: int
    graph: Graph

    def __repr__(self) -> str:
        return f"<LeafEntry #{self.graph_id} {self.graph!r}>"


Child = Union["CTreeNode", LeafEntry]


class CTreeNode:
    """One node of a C-tree."""

    __slots__ = ("is_leaf", "children", "_closure", "_stored", "_decode")

    def __init__(self, is_leaf: bool, children: Optional[list] = None,
                 stored_closure: Optional[dict] = None,
                 decode: Optional[Callable[[dict], GraphClosure]] = None):
        self.is_leaf = is_leaf
        self.children: list = [] if children is None else children
        self._closure: Optional[GraphClosure] = None
        #: the closure as its record holds it (``decode`` reads that
        #: form), until it is replaced
        self._stored = stored_closure
        self._decode = decode

    # ------------------------------------------------------------------
    @property
    def closure(self) -> Optional[GraphClosure]:
        """The closure of the node's children (None for an empty node)."""
        closure = self._closure
        if closure is None and self._stored is not None:
            closure = self._closure = self._decode(self._stored)
        return closure

    @closure.setter
    def closure(self, value: Optional[GraphClosure]) -> None:
        self._closure = value
        self._stored = None

    def stored_closure(self) -> Optional[dict]:
        """The closure in the record form it was loaded in, while it is
        unchanged (so an untouched summary rewrites byte-identically);
        None once it was replaced, or for a node that was never stored."""
        return self._stored

    def drop_stored(self) -> None:
        """Let go of the record form once the closure is decoded: a node
        nobody will rewrite (a paged store's resident snapshot) has no
        use for both."""
        if self._closure is not None:
            self._stored = None

    @property
    def fanout(self) -> int:
        return len(self.children)

    def height(self) -> int:
        """0 for leaves, 1 + child height otherwise (live nodes only)."""
        node, h = self, 0
        while not node.is_leaf:
            node = node.children[0]
            h += 1
        return h

    @staticmethod
    def child_closure(child: Child) -> GraphClosure:
        """The closure summarizing one child (a graph's singleton closure,
        or an inner node's cached closure)."""
        if isinstance(child, LeafEntry):
            return as_closure(child.graph)
        assert child.closure is not None, "inner node without closure"
        return child.closure

    # ------------------------------------------------------------------
    def add_child(self, child: Child) -> None:
        self.children.append(child)

    # ------------------------------------------------------------------
    def rebuild_summary(self, mapper: Mapper) -> None:
        """Recompute the closure from scratch over all (live) children."""
        self.closure = fold_closure_set(
            (self.child_closure(child) for child in self.children), mapper)

    # ------------------------------------------------------------------
    def iter_leaf_entries(self) -> Iterator[LeafEntry]:
        """All database graphs below this (live) node."""
        if self.is_leaf:
            yield from self.children
        else:
            for child in self.children:
                yield from child.iter_leaf_entries()

    def count_nodes(self) -> int:
        """Number of tree nodes in this (live) subtree, including self."""
        if self.is_leaf:
            return 1
        return 1 + sum(child.count_nodes() for child in self.children)

    def __repr__(self) -> str:
        kind = "leaf" if self.is_leaf else "node"
        return f"<CTreeNode {kind} fanout={self.fanout}>"
