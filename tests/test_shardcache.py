"""Answer-cache tests: the engine's in-process LRU.

The cache backs the engine's never-wrong-answer contract: a hit must be
byte-equivalent to re-running the query, and a structurally different
query — same signature or not — must be a miss.
"""

from repro.graphs.graph import Graph
from repro.ctree.shardcache import LRUAnswerCache
from repro.ctree.stats import QueryStats


def _graph(n: int) -> Graph:
    """A small path graph distinct for every ``n``."""
    labels = ["C"] * 2 + ["O"] * n
    edges = [(i, i + 1) for i in range(len(labels) - 1)]
    return Graph(labels, edges)


def _stats(**kwargs) -> QueryStats:
    return QueryStats(database_size=10, candidates=3, answers=2, **kwargs)


# ----------------------------------------------------------------------
# LRUAnswerCache
# ----------------------------------------------------------------------
class TestLRUAnswerCache:
    def test_roundtrip_with_structural_copy(self):
        cache = LRUAnswerCache(capacity=4)
        query = _graph(1)
        cache.put("subgraph", (1, True), query, [1, 2], _stats())
        # A structurally identical *copy* must hit (the cache verifies
        # structure, not object identity).
        hit = cache.get("subgraph", (1, True), query.copy())
        assert hit is not None
        answers, stats = hit
        assert answers == [1, 2]
        assert stats.candidates == 3
        assert cache.entries == 1

    def test_params_and_kind_partition_the_key(self):
        cache = LRUAnswerCache(capacity=8)
        query = _graph(1)
        cache.put("subgraph", (1, True), query, [1], _stats())
        assert cache.get("subgraph", (2, True), query) is None
        assert cache.get("knn", (1, True), query) is None
        assert cache.get("subgraph", (1, True), query) is not None

    def test_different_structure_misses(self):
        cache = LRUAnswerCache(capacity=8)
        cache.put("subgraph", (1, True), _graph(1), [1], _stats())
        assert cache.get("subgraph", (1, True), _graph(2)) is None

    def test_eviction_is_entry_counted_oldest_first(self):
        cache = LRUAnswerCache(capacity=2)
        cache.put("subgraph", (1, True), _graph(1), [1], _stats())
        cache.put("subgraph", (1, True), _graph(2), [2], _stats())
        cache.put("subgraph", (1, True), _graph(3), [3], _stats())
        assert cache.entries == 2
        assert cache.get("subgraph", (1, True), _graph(1)) is None
        assert cache.get("subgraph", (1, True), _graph(2)) is not None
        assert cache.get("subgraph", (1, True), _graph(3)) is not None

    def test_capacity_zero_disables(self):
        cache = LRUAnswerCache(capacity=0)
        assert not cache.enabled
        cache.put("subgraph", (1, True), _graph(1), [1], _stats())
        assert cache.entries == 0
        assert cache.get("subgraph", (1, True), _graph(1)) is None

    def test_clear(self):
        cache = LRUAnswerCache(capacity=4)
        cache.put("subgraph", (1, True), _graph(1), [1], _stats())
        cache.clear()
        assert cache.entries == 0
        assert cache.get("subgraph", (1, True), _graph(1)) is None

    def test_cached_answers_are_isolated_copies(self):
        cache = LRUAnswerCache(capacity=4)
        answers = [1, 2]
        cache.put("subgraph", (1, True), _graph(1), answers, _stats())
        answers.append(99)
        got, _ = cache.get("subgraph", (1, True), _graph(1))
        assert got == [1, 2]

    def test_isomorphic_renumbering_misses(self):
        # Same labels and edges under another vertex numbering: equal
        # signatures, so the two collide, but not structure_equal.
        cache = LRUAnswerCache(capacity=4)
        query = Graph(["C", "O", "N"], [(0, 1), (1, 2)])
        renumbered = Graph(["N", "O", "C"], [(0, 1), (1, 2)])
        assert query.signature() == renumbered.signature()
        assert not query.structure_equal(renumbered)
        cache.put("subgraph", (1, True), query, [1], _stats())
        assert cache.get("subgraph", (1, True), renumbered) is None
        assert cache.get("subgraph", (1, True), query) is not None

    def test_edge_order_and_copy_hit(self):
        cache = LRUAnswerCache(capacity=4)
        query = Graph(["C", "C", "O", "N"], [(0, 1), (1, 2), (2, 3)])
        cache.put("subgraph", (1, True), query, [1], _stats())
        rebuilt = Graph(["C", "C", "O", "N"], [(2, 3), (0, 1), (2, 1)])
        assert cache.get("subgraph", (1, True), rebuilt) is not None
        assert cache.get("subgraph", (1, True), query.copy()) is not None

    def test_put_of_a_cached_query_replaces_its_entry(self):
        cache = LRUAnswerCache(capacity=4)
        cache.put("subgraph", (1, True), _graph(1), [1], _stats())
        cache.put("subgraph", (1, True), _graph(1).copy(), [2], _stats())
        assert cache.entries == 1
        answers, _ = cache.get("subgraph", (1, True), _graph(1))
        assert answers == [2]
