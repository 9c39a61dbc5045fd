"""Unit tests for the GraphGrep baseline."""

from collections import Counter

import pytest

from repro.exceptions import ConfigError
from repro.graphs.graph import Graph
from repro.graphgrep.index import GraphGrepIndex
from repro.graphgrep.paths import iter_label_paths, label_path_counts
from repro.ctree.subgraph_query import linear_scan_subgraph_query
from repro.datasets.queries import generate_subgraph_queries

from conftest import path_graph, triangle


class TestPathEnumeration:
    def test_length_zero_is_vertices(self):
        counts = label_path_counts(triangle(), 0)
        assert counts == Counter({("A",): 1, ("B",): 1, ("C",): 1})

    def test_single_edge_paths_both_directions(self):
        g = Graph(["A", "B"], [(0, 1)])
        counts = label_path_counts(g, 1)
        assert counts[("A", None, "B")] == 1
        assert counts[("B", None, "A")] == 1

    def test_path_count_on_path_graph(self):
        # Paths in a 3-path: 3 singletons + 4 one-edge + 2 two-edge = 9.
        g = path_graph(["A", "B", "C"])
        assert sum(label_path_counts(g, 2).values()) == 9

    def test_simple_paths_no_vertex_repeats(self):
        # In a triangle with lp=3, no path revisits a vertex: longest
        # simple paths have 2 edges (3 vertices).
        counts = label_path_counts(triangle(), 3)
        longest = max(len(p) for p in counts)
        assert longest == 5  # 3 vertex labels + 2 edge labels

    def test_negative_length_rejected(self):
        with pytest.raises(ConfigError):
            list(iter_label_paths(triangle(), -1))

    def test_max_paths_guard(self):
        with pytest.raises(ConfigError):
            label_path_counts(triangle(), 2, max_paths=3)

    def test_edge_labels_in_paths(self):
        g = Graph(["A", "B"], [(0, 1, "double")])
        counts = label_path_counts(g, 1)
        assert ("A", "double", "B") in counts


class TestIndexBuild:
    def test_config_validation(self):
        with pytest.raises(ConfigError):
            GraphGrepIndex.build([], lp=0)
        with pytest.raises(ConfigError):
            GraphGrepIndex.build([], fingerprint_size=0)

    def test_add_returns_position(self):
        index = GraphGrepIndex.build([triangle()])
        assert index.add(path_graph(["A", "B"])) == 1
        assert len(index) == 2

    def test_paths_interned_across_graphs(self):
        index = GraphGrepIndex.build([triangle(), triangle()])
        # Identical graphs contribute identical paths: the intern table
        # should not double.
        assert len(index.path_ids) == len(index.columns[0])

    def test_index_size_grows_with_lp(self, chem_db_small):
        small = GraphGrepIndex.build(chem_db_small[:20], lp=2)
        big = GraphGrepIndex.build(chem_db_small[:20], lp=5)
        assert big.index_size_bytes() > small.index_size_bytes()


class TestQuery:
    def test_filter_is_sound(self, chem_db_small):
        """Candidates must be a superset of the true answers."""
        index = GraphGrepIndex.build(chem_db_small, lp=4)
        queries = generate_subgraph_queries(chem_db_small, 6, 5, seed=9)
        for q in queries:
            candidates = set(index.candidates(q))
            truth = set(
                linear_scan_subgraph_query(
                    {i: g for i, g in enumerate(chem_db_small)}, q
                )
            )
            assert truth <= candidates

    def test_answers_match_linear_scan(self, chem_db_small):
        index = GraphGrepIndex.build(chem_db_small, lp=4)
        for size in (4, 8):
            for q in generate_subgraph_queries(chem_db_small, size, 3, seed=size):
                answers, stats = index.query(q)
                truth = linear_scan_subgraph_query(
                    {i: g for i, g in enumerate(chem_db_small)}, q
                )
                assert sorted(answers) == sorted(truth)
                assert stats.answers == len(truth)
                assert stats.candidates >= stats.answers

    def test_unseen_path_empties_candidates(self, chem_db_small):
        index = GraphGrepIndex.build(chem_db_small, lp=4)
        alien = Graph(["Qq", "Ww"], [(0, 1)])
        assert index.candidates(alien) == []

    def test_verify_false(self, chem_db_small):
        index = GraphGrepIndex.build(chem_db_small, lp=4)
        q = generate_subgraph_queries(chem_db_small, 5, 1, seed=11)[0]
        candidates, stats = index.query(q, verify=False)
        assert stats.answers == 0
        assert len(candidates) == stats.candidates

    def test_longer_lp_filters_at_least_as_well(self, chem_db_small):
        idx2 = GraphGrepIndex.build(chem_db_small, lp=2)
        idx5 = GraphGrepIndex.build(chem_db_small, lp=5)
        for q in generate_subgraph_queries(chem_db_small, 7, 3, seed=13):
            assert len(idx5.candidates(q)) <= len(idx2.candidates(q))

    def test_stats_accuracy_bounds(self, chem_db_small):
        index = GraphGrepIndex.build(chem_db_small, lp=4)
        q = generate_subgraph_queries(chem_db_small, 5, 1, seed=15)[0]
        _, stats = index.query(q)
        assert 0.0 <= stats.accuracy <= 1.0
        assert stats.total_seconds >= 0.0
