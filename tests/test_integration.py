"""End-to-end integration tests across modules.

These exercise the full pipeline the way a user would: generate a dataset,
build both indexes, run every query type, and cross-check all answers
against brute force and against each other.
"""

import pytest

from repro import (
    CTree,
    GraphGrepIndex,
    bulk_load,
    generate_chemical_database,
    generate_subgraph_queries,
    knn_query,
    range_query,
    subgraph_query,
)
from repro.ctree.diskindex import DiskCTree
from repro.ctree.subgraph_query import linear_scan_subgraph_query
from repro.datasets import SyntheticConfig, generate_synthetic_database
from repro.datasets.chemical import ChemicalConfig


@pytest.fixture(scope="module")
def world():
    """One shared database + indexes for all integration tests."""
    db = generate_chemical_database(
        80, seed=99, config=ChemicalConfig(mean_vertices=14, large_fraction=0.0)
    )
    tree = bulk_load(db, min_fanout=4)
    gg = GraphGrepIndex.build(db, lp=4)
    return db, tree, gg


class TestThreeWayAgreement:
    @pytest.mark.parametrize("query_size", [4, 7, 10])
    def test_ctree_graphgrep_scan_agree(self, world, query_size):
        db, tree, gg = world
        for q in generate_subgraph_queries(db, query_size, 3, seed=query_size):
            ctree_answers, _ = subgraph_query(tree, q, level=1)
            gg_answers, _ = gg.query(q)
            scan = linear_scan_subgraph_query({i: g for i, g in enumerate(db)}, q)
            assert sorted(ctree_answers) == sorted(scan)
            assert sorted(gg_answers) == sorted(scan)

    def test_ctree_filters_better_than_graphgrep(self, world):
        """The paper's headline: C-tree candidate sets are much smaller.
        At the very least they must not be larger on average."""
        db, tree, gg = world
        total_ctree = total_gg = 0
        for size in (6, 10, 14):
            for q in generate_subgraph_queries(db, size, 4, seed=100 + size):
                _, s1 = subgraph_query(tree, q, level="max")
                _, s2 = gg.query(q)
                total_ctree += s1.candidates
                total_gg += s2.candidates
        assert total_ctree <= total_gg


class TestDynamicWorkflow:
    def test_insert_query_delete_query(self, world):
        db, _, _ = world
        tree = CTree(min_fanout=2, max_fanout=3)
        tree.extend(db[:30])
        q = generate_subgraph_queries(db[:30], 6, 1, seed=1)[0]
        before, _ = subgraph_query(tree, q)
        assert sorted(before) == sorted(
            linear_scan_subgraph_query(dict(tree.graphs()), q)
        )
        tree.delete_many(list(tree.graph_ids())[:15])
        after, _ = subgraph_query(tree, q)
        assert sorted(after) == sorted(
            linear_scan_subgraph_query(dict(tree.graphs()), q)
        )
        tree.validate()

    def test_persist_reload_requery(self, world, tmp_path):
        db, tree, _ = world
        q = generate_subgraph_queries(db, 8, 1, seed=2)[0]
        DiskCTree.create(tree, tmp_path / "t.ctp").close()
        with DiskCTree.open(tmp_path / "t.ctp") as reloaded:
            a1, _ = subgraph_query(tree, q)
            a2, _ = subgraph_query(reloaded, q)
            assert sorted(a1) == sorted(a2)
            res1, _ = knn_query(reloaded, db[0], 3)
        assert len(res1) == 3


class TestSimilarityPipeline:
    def test_knn_and_range_consistent(self, world):
        """Graphs returned by a range query must appear in a sufficiently
        large K-NN result (both use the same heuristic distance/similarity
        machinery)."""
        db, tree, _ = world
        query = db[10]
        in_range, _ = range_query(tree, query, 5.0)
        knn, _ = knn_query(tree, query, len(db))
        knn_ids = [gid for gid, _ in knn]
        for gid, _ in in_range:
            assert gid in knn_ids

    def test_knn_self_query(self, world):
        db, tree, _ = world
        results, stats = knn_query(tree, db[25], 1)
        assert len(results) == 1
        assert stats.access_ratio <= 1.5


class TestSyntheticPipeline:
    def test_full_pipeline_on_synthetic(self):
        config = SyntheticConfig(
            num_graphs=40, num_seeds=10, seed_mean_size=5.0,
            graph_mean_size=20.0, num_labels=5,
        )
        db = generate_synthetic_database(config, seed=21)
        tree = bulk_load(db, min_fanout=3)
        tree.validate()
        gg = GraphGrepIndex.build(db, lp=3)
        for q in generate_subgraph_queries(db, 5, 3, seed=22):
            a1, _ = subgraph_query(tree, q)
            a2, _ = gg.query(q)
            scan = linear_scan_subgraph_query({i: g for i, g in enumerate(db)}, q)
            assert sorted(a1) == sorted(scan)
            assert sorted(a2) == sorted(scan)
