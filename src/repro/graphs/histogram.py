"""Label histograms for lightweight pruning (Section 6.2).

The histogram of a graph counts the occurrences of each distinct vertex and
edge label.  If a query ``Q`` is subgraph-isomorphic to a graph ``G`` then
``F_Q[i] <= F_G[i]`` for every label ``i``; the C-tree tests this cheap
necessary condition before running pseudo subgraph isomorphism on a node.

For a :class:`~repro.graphs.closure.GraphClosure` the histogram counts, for
each label, the number of vertices/edges whose label *set* contains it.  That
value upper-bounds the count of any member graph, so dominance remains a
sound filter at internal nodes.
"""

from __future__ import annotations

from collections import Counter
from typing import Union

from repro.graphs.closure import EPSILON, WILDCARD, GraphClosure
from repro.graphs.graph import Graph

_VERTEX = 0
_EDGE = 1


class LabelHistogram:
    """Counting vector over vertex labels and edge labels.

    Keys are ``(kind, label)`` with ``kind`` 0 for vertices and 1 for edges;
    the dummy label ε and the query wildcard never appear (neither is a real
    attribute value; a wildcard element matches anything, so it imposes no
    per-label requirement on the target).
    """

    __slots__ = ("_counts",)

    def __init__(self, counts: Counter | None = None) -> None:
        self._counts: Counter = counts if counts is not None else Counter()

    @classmethod
    def of(cls, g: Union[Graph, GraphClosure]) -> "LabelHistogram":
        """Histogram of a graph or a graph closure."""
        counts: Counter = Counter()
        if isinstance(g, Graph):
            for v in g.vertices():
                label = g.label(v)
                if label is not WILDCARD:
                    counts[(_VERTEX, label)] += 1
            for _, _, label in g.edges():
                if label is not WILDCARD:
                    counts[(_EDGE, label)] += 1
        elif isinstance(g, GraphClosure):
            for v in g.vertices():
                for label in g.label_set(v):
                    if label is not EPSILON and label is not WILDCARD:
                        counts[(_VERTEX, label)] += 1
            for _, _, label_set in g.edges():
                for label in label_set:
                    if label is not EPSILON and label is not WILDCARD:
                        counts[(_EDGE, label)] += 1
        else:
            raise TypeError(f"cannot build histogram of {type(g).__name__}")
        return cls(counts)

    def dominates(self, query: "LabelHistogram") -> bool:
        """True iff ``self[i] >= query[i]`` for every label ``i``.

        A ``False`` result proves the query cannot be subgraph-isomorphic to
        any graph summarized by ``self``.
        """
        mine = self._counts
        for key, count in query._counts.items():
            if mine.get(key, 0) < count:
                return False
        return True

    def attains(self, outer: "LabelHistogram") -> bool:
        """True iff some count of ``self`` reaches the matching count in
        ``outer`` (``self[i] >= outer[i] > 0`` for at least one label).

        When ``outer`` dominates ``self`` (an ancestor closure over a
        member graph), this detects whether the member is *load-bearing*
        for any label bound: removing a graph that attains no bound
        cannot lower any count of a recomputed closure histogram, so the
        disk delete path skips the recomputation entirely.
        """
        mine = self._counts
        for key, count in mine.items():
            if count >= outer._counts.get(key, 0):
                return True
        return False

    def merged(self, other: "LabelHistogram") -> "LabelHistogram":
        """Pointwise-max merge: the histogram of a parent closure must
        dominate both children, and the pointwise max is the tightest such
        vector computable without re-deriving the closure."""
        counts = Counter(self._counts)
        for key, count in other._counts.items():
            if counts.get(key, 0) < count:
                counts[key] = count
        return LabelHistogram(counts)

    def added(self, other: "LabelHistogram") -> "LabelHistogram":
        """Pointwise sum (useful for aggregate statistics)."""
        counts = Counter(self._counts)
        counts.update(other._counts)
        return LabelHistogram(counts)

    def __getitem__(self, key: tuple) -> int:
        return self._counts.get(key, 0)

    def __len__(self) -> int:
        return len(self._counts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabelHistogram):
            return NotImplemented
        return self._counts == other._counts

    def __repr__(self) -> str:
        return f"<LabelHistogram {len(self._counts)} distinct labels>"

    def to_dict(self) -> dict:
        return {
            "vertex": {repr(label): c for (kind, label), c in self._counts.items()
                       if kind == _VERTEX},
            "edge": {repr(label): c for (kind, label), c in self._counts.items()
                     if kind == _EDGE},
        }
