"""The engine's answer cache: an in-process LRU keyed by graph
signature, and the exact structure key it verifies hits with.

:class:`LRUAnswerCache` sits in front of
:class:`~repro.ctree.parallel.QueryEngine`'s partitions:
signature-keyed buckets verified by exact structural equality,
entry-level LRU eviction.  It dies with its engine.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.graphs.graph import Graph

__all__ = ["LRUAnswerCache", "structure_key"]


def structure_key(graph: Graph) -> tuple:
    """An exact structural identity key for ``graph`` (order-normalized
    labels and edges).

    Two graphs compare equal under this key iff
    :meth:`Graph.structure_equal <repro.graphs.graph.Graph.structure_equal>`
    holds — it is the engine's batch-dedup identity.
    """
    return (
        tuple(repr(graph.label(v)) for v in graph.vertices()),
        tuple(sorted((u, v, repr(label)) for u, v, label in graph.edges())),
    )


# ----------------------------------------------------------------------
# In-process LRU
# ----------------------------------------------------------------------
class LRUAnswerCache:
    """Signature-keyed LRU answer cache with exact-structure buckets.

    ``capacity`` bounds the number of cached *entries* across all
    signature buckets; ``0`` disables the cache (every :meth:`get`
    misses, every :meth:`put` is dropped), which the engine also takes
    as the signal to skip batch deduplication.

    A bucket key is ``(kind, params, query.signature())``; because the
    signature is isomorphism-invariant but incomplete, each bucket holds
    ``(stored_query, answers, stats)`` triples and a hit additionally
    requires :meth:`Graph.structure_equal
    <repro.graphs.graph.Graph.structure_equal>` — a colliding
    non-identical query is a miss, never a wrong answer.
    """

    def __init__(self, capacity: int = 256) -> None:
        self.capacity = max(0, int(capacity))
        #: (kind, params, signature) -> [(query, answers, stats), ...]
        self._buckets: "OrderedDict[tuple, list]" = OrderedDict()
        self._entries = 0

    @property
    def enabled(self) -> bool:
        """Whether lookups can ever hit (capacity > 0)."""
        return self.capacity > 0

    @property
    def entries(self) -> int:
        """Cached answers currently held (across buckets)."""
        return self._entries

    def get(self, kind: str, params: tuple, query: Graph):
        """The cached ``(answers, stats)`` for an identical query, or
        ``None``."""
        if self.capacity <= 0:
            return None
        key = (kind, params, query.signature())
        bucket = self._buckets.get(key)
        if not bucket:
            return None
        for stored, answers, stats in bucket:
            if stored.structure_equal(query):
                self._buckets.move_to_end(key)
                return (answers, stats)
        return None

    def put(self, kind: str, params: tuple, query: Graph, answers,
            stats) -> None:
        """Cache one answered query (evicting oldest entries past
        capacity)."""
        if self.capacity <= 0:
            return
        key = (kind, params, query.signature())
        bucket = self._buckets.setdefault(key, [])
        bucket.append((query.copy(), list(answers), stats.copy()))
        self._buckets.move_to_end(key)
        self._entries += 1
        # Evict by *entry*, oldest bucket first, so signature collisions
        # (several structurally distinct queries in one bucket) cannot
        # grow the cache past its configured capacity.
        while self._entries > self.capacity:
            old_key, old_bucket = next(iter(self._buckets.items()))
            old_bucket.pop(0)
            self._entries -= 1
            if not old_bucket:
                del self._buckets[old_key]

    def clear(self) -> None:
        """Drop every cached answer."""
        self._buckets.clear()
        self._entries = 0
