"""Label histograms in set form: the reference of the Sec. 6.2 screen.

The histogram of a graph counts the occurrences of each distinct vertex and
edge label.  If a query ``Q`` is subgraph-isomorphic to a graph ``G`` then
``F_Q[i] <= F_G[i]`` for every label ``i``.  For a
:class:`~repro.graphs.closure.GraphClosure` the histogram counts, for each
label, the number of vertices/edges whose label *set* contains it, which
upper-bounds the count of any member graph (Lemma 1).

The product screens, bounds and checks with the interned
:class:`~repro.graphs.labelspace.LabelSummary`; this is the readable
form the tests hold it to.
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

    def __init__(self, counts: dict | None = None) -> None:
        self._counts: Counter = Counter(counts or ())

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
        ``outer`` (``self[i] >= outer[i] > 0`` for at least one label)."""
        mine = self._counts
        for key, count in mine.items():
            if count >= outer._counts.get(key, 0):
                return True
        return False

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabelHistogram):
            return NotImplemented
        return self._counts == other._counts

    def __repr__(self) -> str:
        return f"<LabelHistogram {dict(self._counts)!r}>"
