"""Tests for the M-tree baseline.

Exactness is checked under a *true metric* (L1 distance between label
histograms), where M-tree pruning is provably safe; the NBM edit distance
(heuristic, used in the benchmark comparison) gets smoke coverage.
"""

import random

import pytest

from repro.exceptions import ConfigError
from repro.graphs.graph import Graph
from repro.mtree.tree import MTree, build_mtree
from oracles.histogram import LabelHistogram

from conftest import random_labeled_graph


def histogram_l1(a: Graph, b: Graph) -> float:
    """L1 distance between label histograms — a genuine metric on graphs."""
    ha, hb = LabelHistogram.of(a)._counts, LabelHistogram.of(b)._counts
    keys = set(ha) | set(hb)
    return float(sum(abs(ha.get(k, 0) - hb.get(k, 0)) for k in keys))


@pytest.fixture(scope="module")
def metric_world():
    rng = random.Random(5)
    graphs = [random_labeled_graph(rng, rng.randrange(3, 10)) for _ in range(60)]
    tree = build_mtree(graphs, max_fanout=5, distance=histogram_l1, seed=1)
    return graphs, tree


class TestConstruction:
    def test_fanout_validated(self):
        with pytest.raises(ConfigError):
            MTree(max_fanout=3)

    def test_duplicate_id_rejected(self):
        tree = MTree(max_fanout=4, distance=histogram_l1)
        tree.insert(Graph(["A"]), graph_id=1)
        with pytest.raises(ConfigError):
            tree.insert(Graph(["B"]), graph_id=1)

    def test_all_graphs_present(self, metric_world):
        graphs, tree = metric_world
        assert len(tree) == len(graphs)
        assert sorted(tree.root.iter_graph_ids()) == list(range(len(graphs)))

    def test_invariants(self, metric_world):
        _, tree = metric_world
        tree.validate()

    def test_splits_happened(self, metric_world):
        _, tree = metric_world
        assert not tree.root.is_leaf  # 60 objects at fanout 5 must split

    def test_build_counts_distances(self, metric_world):
        _, tree = metric_world
        assert tree.build_distance_computations > 0


class TestKnnExact:
    def test_matches_linear_scan(self, metric_world):
        graphs, tree = metric_world
        for qid in (0, 13, 37):
            query = graphs[qid]
            results, stats = tree.knn_query(query, 5)
            scan = sorted(
                ((histogram_l1(query, g), i) for i, g in enumerate(graphs)),
            )[:5]
            result_dists = [d for _, d in results]
            scan_dists = [d for d, _ in scan]
            assert result_dists == pytest.approx(scan_dists)
            assert stats.distance_computations <= len(graphs) * 2

    def test_self_query_first(self, metric_world):
        graphs, tree = metric_world
        results, _ = tree.knn_query(graphs[7], 1)
        assert results[0][1] == 0.0

    def test_k_zero_and_oversized(self, metric_world):
        graphs, tree = metric_world
        assert tree.knn_query(graphs[0], 0)[0] == []
        results, _ = tree.knn_query(graphs[0], len(graphs) + 5)
        assert len(results) == len(graphs)

    def test_results_sorted(self, metric_world):
        graphs, tree = metric_world
        results, _ = tree.knn_query(graphs[2], 10)
        dists = [d for _, d in results]
        assert dists == sorted(dists)

    def test_pruning_happens(self, metric_world):
        graphs, tree = metric_world
        _, stats = tree.knn_query(graphs[0], 1)
        # With 60 objects and k=1 the triangle inequality must save work
        # against the worst case of one distance per entry per level.
        assert stats.pruned_by_triangle > 0
        assert stats.access_ratio < 2.0


class TestRangeExact:
    def test_matches_linear_scan(self, metric_world):
        graphs, tree = metric_world
        query = graphs[11]
        for radius in (0.0, 3.0, 8.0):
            results, _ = tree.range_query(query, radius)
            expected = sorted(
                (i, histogram_l1(query, g))
                for i, g in enumerate(graphs)
                if histogram_l1(query, g) <= radius
            )
            assert sorted(gid for gid, _ in results) == [i for i, _ in expected]

    def test_radius_zero_finds_self(self, metric_world):
        graphs, tree = metric_world
        results, _ = tree.range_query(graphs[4], 0.0)
        assert any(gid == 4 for gid, _ in results)


class TestWithHeuristicDistance:
    def test_nbm_distance_smoke(self, chem_db_small):
        tree = build_mtree(chem_db_small[:25], max_fanout=5, seed=2)
        assert len(tree) == 25
        query = chem_db_small[3]
        results, stats = tree.knn_query(query, 3)
        assert len(results) == 3
        assert results[0][1] == 0.0  # the graph itself at distance ~0
        assert stats.distance_computations > 0

    def test_empty_tree(self):
        tree = MTree(max_fanout=4)
        results, stats = tree.knn_query(Graph(["A"]), 3)
        assert results == []
        assert stats.results == 0
