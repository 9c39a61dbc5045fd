"""The engine's answer cache: an in-process LRU keyed by the query
graph itself.

:class:`LRUAnswerCache` sits in front of
:class:`~repro.ctree.parallel.QueryEngine`'s partitions.  A C-tree
answer depends only on the query graph, so the graph is the key: it
hashes by :meth:`Graph.signature()
<repro.graphs.graph.Graph.signature>` and compares by exact structural
equality.  It dies with its engine.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.graphs.graph import Graph

__all__ = ["LRUAnswerCache"]


class LRUAnswerCache:
    """LRU answer cache keyed by ``(kind, params, query)``.

    ``capacity`` bounds the number of cached answers; ``0`` disables the
    cache (every :meth:`get` misses, every :meth:`put` is dropped),
    which the engine also takes as the signal to skip batch
    deduplication.

    The query part of the key is the :class:`~repro.graphs.graph.Graph`
    (a private copy on :meth:`put`).  It hashes by its
    isomorphism-invariant but incomplete signature and compares by
    :meth:`Graph.structure_equal
    <repro.graphs.graph.Graph.structure_equal>`, so a query with the
    same signature but another structure is a miss, never a wrong
    answer.
    """

    def __init__(self, capacity: int = 256) -> None:
        self.capacity = max(0, int(capacity))
        #: (kind, params, query) -> (answers, stats), oldest first
        self._entries: "OrderedDict[tuple, tuple]" = OrderedDict()

    @property
    def enabled(self) -> bool:
        """Whether lookups can ever hit (capacity > 0)."""
        return self.capacity > 0

    @property
    def entries(self) -> int:
        """Cached answers currently held."""
        return len(self._entries)

    def get(self, kind: str, params: tuple, query: Graph):
        """The cached ``(answers, stats)`` for an identical query, or
        ``None``."""
        if self.capacity <= 0:
            return None
        key = (kind, params, query)
        cached = self._entries.get(key)
        if cached is not None:
            self._entries.move_to_end(key)
        return cached

    def put(self, kind: str, params: tuple, query: Graph, answers,
            stats) -> None:
        """Cache one answered query, replacing any entry for an
        identical one (evicting the oldest entry past capacity)."""
        if self.capacity <= 0:
            return
        key = (kind, params, query.copy())
        self._entries[key] = (list(answers), stats.copy())
        self._entries.move_to_end(key)
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        """Drop every cached answer."""
        self._entries.clear()
