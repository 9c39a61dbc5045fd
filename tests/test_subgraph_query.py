"""Unit tests for subgraph query processing (Alg. 3)."""

import pytest

from repro.graphs.graph import Graph
from repro.ctree.bulkload import bulk_load
from repro.ctree.subgraph_query import (
    linear_scan_subgraph_query,
    subgraph_query,
)
from repro.ctree.tree import CTree
from repro.datasets.queries import generate_subgraph_queries

from conftest import path_graph, triangle


@pytest.fixture(scope="module")
def chem_tree_and_db(request):
    from repro.datasets.chemical import ChemicalConfig, generate_chemical_database

    db = generate_chemical_database(
        60, seed=42, config=ChemicalConfig(mean_vertices=15, large_fraction=0.0)
    )
    return bulk_load(db, min_fanout=3), db


class TestCorrectness:
    def test_empty_tree(self):
        tree = CTree(min_fanout=2)
        answers, stats = subgraph_query(tree, triangle())
        assert answers == []
        assert stats.candidates == 0

    def test_single_vertex_query(self):
        tree = CTree(min_fanout=2)
        tree.extend([triangle(), path_graph(["X", "Y"])])
        answers, _ = subgraph_query(tree, Graph(["A"]))
        assert answers == [0]

    def test_exact_graph_query_finds_itself(self, chem_tree_and_db):
        tree, db = chem_tree_and_db
        answers, _ = subgraph_query(tree, db[7])
        assert 7 in answers

    @pytest.mark.parametrize("level", [0, 1, 2, "max"])
    def test_matches_linear_scan_all_levels(self, chem_tree_and_db, level):
        tree, db = chem_tree_and_db
        queries = generate_subgraph_queries(db, 5, 4, seed=1)
        queries += generate_subgraph_queries(db, 9, 4, seed=2)
        for q in queries:
            answers, _ = subgraph_query(tree, q, level=level)
            expected = linear_scan_subgraph_query(dict(tree.graphs()), q)
            assert sorted(answers) == sorted(expected)

    def test_no_answer_query(self, chem_tree_and_db):
        tree, _ = chem_tree_and_db
        impossible = Graph(["Uuq", "Uuq"], [(0, 1)])  # label not in alphabet
        answers, stats = subgraph_query(tree, impossible)
        assert answers == []
        # Histogram pruning alone should kill everything at the root.
        assert stats.pseudo_tests == 0


class TestStats:
    def test_candidates_superset_of_answers(self, chem_tree_and_db):
        tree, db = chem_tree_and_db
        for q in generate_subgraph_queries(db, 6, 5, seed=3):
            answers, stats = subgraph_query(tree, q, level=1)
            assert stats.answers == len(answers)
            assert stats.candidates >= stats.answers
            assert 0.0 <= stats.accuracy <= 1.0

    def test_max_level_is_at_least_as_selective(self, chem_tree_and_db):
        tree, db = chem_tree_and_db
        for q in generate_subgraph_queries(db, 7, 5, seed=4):
            _, s1 = subgraph_query(tree, q, level=1)
            _, smax = subgraph_query(tree, q, level="max")
            assert smax.candidates <= s1.candidates
            assert smax.answers == s1.answers

    def test_access_ratio_in_unit_range(self, chem_tree_and_db):
        tree, db = chem_tree_and_db
        q = generate_subgraph_queries(db, 10, 1, seed=5)[0]
        _, stats = subgraph_query(tree, q)
        # R counts nodes + graphs tested; can slightly exceed |D| in theory
        # but must stay in the same ballpark.
        assert 0.0 <= stats.access_ratio <= 1.5

    def test_per_level_counters_consistent(self, chem_tree_and_db):
        tree, db = chem_tree_and_db
        q = generate_subgraph_queries(db, 5, 1, seed=6)[0]
        _, stats = subgraph_query(tree, q)
        # R = Σx (γ's numerator); only graphs are pseudo-iso tested, so
        # the leaf depth's x is pseudo_tests and nothing prunes above it
        assert sum(stats.x_by_level) \
            == stats.access_ratio * stats.database_size
        assert stats.x_by_level[-1] == stats.pseudo_tests
        assert stats.x_by_level[:-1] == stats.y_by_level[:-1]
        assert stats.y_by_level[-1] == stats.candidates
        assert sum(stats.y_by_level) == stats.pseudo_survivors
        assert sum(stats.nodes_by_level) == stats.nodes_expanded
        assert stats.nodes_by_level[1:] == stats.y_by_level[:-1]

    def test_verify_false_returns_candidates(self, chem_tree_and_db):
        tree, db = chem_tree_and_db
        q = generate_subgraph_queries(db, 6, 1, seed=7)[0]
        candidates, stats = subgraph_query(tree, q, verify=False)
        assert len(candidates) == stats.candidates
        assert stats.answers == 0
        answers, _ = subgraph_query(tree, q)
        assert set(answers) <= set(candidates)

    def test_merge_accumulates(self, chem_tree_and_db):
        from repro.ctree.stats import QueryStats

        tree, db = chem_tree_and_db
        merged = QueryStats()
        singles = []
        for q in generate_subgraph_queries(db, 6, 3, seed=8):
            _, stats = subgraph_query(tree, q)
            singles.append(stats)
            merged.merge(stats)
        assert merged.candidates == sum(s.candidates for s in singles)
        assert merged.pseudo_tests == sum(s.pseudo_tests for s in singles)
        assert merged.nodes_expanded == sum(s.nodes_expanded for s in singles)
        assert sum(merged.nodes_by_level) == merged.nodes_expanded


class TestProductPathsReachNoReference:
    def test_queries_and_checks_run_with_the_references_disabled(
            self, chem_tree_and_db, tmp_path, monkeypatch):
        """Every set-based reference raises; subgraph queries on both
        stores at levels 1 and max, a K-NN query, a delete batch (its
        closure-shrink test), the deep soundness walk, fsck and the
        linear scan still succeed — one matching engine and one label
        histogram serve them all."""
        from repro.ctree.diskindex import DiskCTree
        from repro.ctree.similarity_query import knn_query
        from oracles import bipartite, bounds, nbm, pseudo_iso, ullmann
        from oracles.histogram import LabelHistogram

        def reference(*args, **kwargs):
            raise AssertionError("a product path reached a reference")

        for module, name in (
                (bipartite, "has_semi_perfect_matching"),
                (pseudo_iso, "has_semi_perfect_matching"),
                (pseudo_iso, "level0_domains"),
                (pseudo_iso, "refine_bipartite"),
                (ullmann, "compatibility_domains"),
                (ullmann, "refine_domains"),
                (nbm, "nbm_mapping_reference"),
                (bounds, "set_similarity_upper_bound"),
                (LabelHistogram, "of"),
                (LabelHistogram, "dominates")):
            monkeypatch.setattr(module, name, reference)
        _, db = chem_tree_and_db
        tree = bulk_load(db, min_fanout=3)  # the batch below writes
        queries = generate_subgraph_queries(db, 6, 3, seed=10)
        path = tmp_path / "t.ctp"
        with DiskCTree.create(tree, path) as disk:
            knn = []
            for index in (tree, disk):
                for level in (1, "max"):
                    for q in queries:
                        answers, _ = subgraph_query(index, q, level=level)
                        assert sorted(answers) == \
                            linear_scan_subgraph_query(db, q)
                knn.append(knn_query(index, queries[0], 5)[0])
                index.delete_many(range(0, 60, 7), seed=3)
                index.validate(deep=True)
            assert knn[0] == knn[1]
            assert len(disk) == len(tree) == 51
        assert DiskCTree.fsck(path, deep=True).clean


class TestLinearScan:
    def test_accepts_list_or_dict(self):
        graphs = [triangle(), path_graph(["A", "B"])]
        q = Graph(["A"])
        assert linear_scan_subgraph_query(graphs, q) == [0, 1]
        assert linear_scan_subgraph_query({5: triangle()}, q) == [5]
