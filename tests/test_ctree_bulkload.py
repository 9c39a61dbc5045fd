"""Unit tests for bulk loading via hierarchical clustering (Section 5.5)."""

import pytest

from repro.ctree.bulkload import _chunk, bulk_load
from repro.ctree.node import LeafEntry
from repro.ctree.subgraph_query import linear_scan_subgraph_query, subgraph_query
from repro.datasets.queries import generate_subgraph_queries

from conftest import random_labeled_graph, triangle


class TestChunk:
    def test_sizes_within_bounds(self):
        items = list(range(45))
        for n in (45, 41, 40, 80, 200):
            chunks = _chunk(list(range(n)), 20, 39)
            assert sum(len(c) for c in chunks) == n
            for c in chunks:
                assert 20 <= len(c) <= 39

    def test_order_preserved(self):
        chunks = _chunk(list(range(10)), 2, 3)
        flattened = [x for c in chunks for x in c]
        assert flattened == list(range(10))


class TestBulkLoad:
    def test_empty(self):
        tree = bulk_load([], min_fanout=2)
        assert len(tree) == 0
        tree.validate()

    def test_single_graph(self):
        tree = bulk_load([triangle()], min_fanout=2)
        assert len(tree) == 1
        tree.validate(deep=True)

    def test_ids_sequential(self, rng):
        graphs = [random_labeled_graph(rng, 4) for _ in range(7)]
        tree = bulk_load(graphs, min_fanout=2)
        assert sorted(tree.graph_ids()) == list(range(7))
        for i, g in enumerate(graphs):
            assert tree.get(i) == g

    @pytest.mark.parametrize("count", [1, 3, 7, 20, 55])
    def test_valid_at_many_sizes(self, count, rng):
        graphs = [random_labeled_graph(rng, rng.randrange(2, 7)) for _ in range(count)]
        tree = bulk_load(graphs, min_fanout=2, max_fanout=4)
        tree.validate(deep=(count <= 20))
        assert len(tree) == count

    def test_leaves_indexed(self, rng):
        """Every catalogued graph sits in exactly one leaf, and the
        delete path's root-to-leaf search finds that leaf."""
        graphs = [random_labeled_graph(rng, 4) for _ in range(30)]
        tree = bulk_load(graphs, min_fanout=2, max_fanout=4)
        assert sorted(e.graph_id for e in tree.root.iter_leaf_entries()) \
            == sorted(tree.graph_ids())
        for gid in tree.graph_ids():
            path = tree._find_path(gid)
            assert path[0][1] is tree.root
            assert any(
                isinstance(c, LeafEntry) and c.graph_id == gid
                for c in path[-1][1].children
            )

    def test_queries_match_linear_scan(self, chem_db_small):
        tree = bulk_load(chem_db_small, min_fanout=3)
        queries = generate_subgraph_queries(chem_db_small, 6, 4, seed=5)
        for q in queries:
            answers, _ = subgraph_query(tree, q)
            expected = linear_scan_subgraph_query(dict(tree.graphs()), q)
            assert sorted(answers) == sorted(expected)

    def test_insert_after_bulk_load(self, rng):
        graphs = [random_labeled_graph(rng, 4) for _ in range(10)]
        tree = bulk_load(graphs, min_fanout=2, max_fanout=4)
        assert tree.extend([triangle()]) == [10]
        tree.validate()

    def test_deterministic(self, rng):
        graphs = [random_labeled_graph(rng, 5) for _ in range(25)]
        t1 = bulk_load(graphs, min_fanout=2, max_fanout=4, seed=3)
        t2 = bulk_load(graphs, min_fanout=2, max_fanout=4, seed=3)
        assert t1.node_count() == t2.node_count()
        assert t1.root.closure == t2.root.closure
