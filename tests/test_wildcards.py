"""Tests for wildcard-label queries.

The paper's introduction motivates subgraph queries where "some parts are
uncertain, e.g., vertices with wildcard labels".  A query element labeled
``WILDCARD`` matches any real label; the whole subgraph-query pipeline
(histogram pruning, pseudo subgraph isomorphism, Ullmann verification)
honors it, while GraphGrep — whose features must match exactly — rejects
wildcard queries, as Section 1.1's critique predicts.
"""

import pytest

from repro.exceptions import ConfigError
from repro.graphs.closure import WILDCARD, contains_wildcard
from repro.graphs.graph import Graph
from repro.graphs.labelspace import label_context
from repro.matching.pseudo_iso import pseudo_subgraph_isomorphic
from repro.matching.ullmann import enumerate_embeddings, subgraph_isomorphic
from repro.ctree.bulkload import bulk_load
from repro.ctree.subgraph_query import subgraph_query
from repro.graphgrep.index import GraphGrepIndex
from oracles.graphs import labels_match
from oracles.histogram import LabelHistogram

from conftest import path_graph, triangle


class TestWildcardBasics:
    def test_singleton(self):
        from repro.graphs.closure import _Wildcard

        assert _Wildcard() is WILDCARD
        assert repr(WILDCARD) == "*"

    def test_pickle_identity(self):
        import pickle

        assert pickle.loads(pickle.dumps(WILDCARD)) is WILDCARD

    def test_labels_match(self):
        assert labels_match(frozenset([WILDCARD]), frozenset(["X"]))
        assert labels_match(frozenset(["X"]), frozenset([WILDCARD]))
        assert not labels_match(frozenset(["A"]), frozenset(["B"]))
        assert labels_match(frozenset(["A"]), frozenset(["A"]))

    def test_contains_wildcard(self):
        assert not contains_wildcard(triangle())
        g = Graph(["A", WILDCARD], [(0, 1)])
        assert contains_wildcard(g)
        h = Graph(["A", "B"], [(0, 1, WILDCARD)])
        assert contains_wildcard(h)

    def test_serialization_roundtrip(self):
        g = Graph(["A", WILDCARD], [(0, 1, WILDCARD)])
        back = Graph.from_dict(g.to_dict())
        assert back.label(1) is WILDCARD
        assert back.edge_label(0, 1) is WILDCARD

    def test_histogram_skips_wildcards(self):
        g = Graph(["A", WILDCARD], [(0, 1)])
        assert LabelHistogram.of(g) == LabelHistogram({(0, "A"): 1,
                                                       (1, None): 1})
        summary = label_context(g)
        assert sum(summary.vhist.values()) == 1
        # A graph without the wildcard's "label" still dominates the query.
        assert label_context(path_graph(["A", "Z"])).dominates(summary)


class TestWildcardMatching:
    def test_wildcard_vertex_matches_any_label(self):
        query = Graph(["A", WILDCARD], [(0, 1)])
        target1 = Graph(["A", "Zr"], [(0, 1)])
        target2 = Graph(["A"])
        assert subgraph_isomorphic(query, target1)
        assert not subgraph_isomorphic(query, target2)  # must still exist

    def test_wildcard_edge_label(self):
        query = Graph(["A", "B"], [(0, 1, WILDCARD)])
        target = Graph(["A", "B"], [(0, 1, "double")])
        assert subgraph_isomorphic(query, target)

    def test_all_wildcard_query_matches_structure(self):
        # A wildcard triangle finds any triangle.
        query = Graph([WILDCARD] * 3, [(0, 1), (1, 2), (0, 2)])
        assert subgraph_isomorphic(query, triangle())
        assert not subgraph_isomorphic(query, path_graph(["A", "B", "C"]))

    def test_wildcard_embeddings_enumerated(self):
        query = Graph([WILDCARD])
        target = path_graph(["A", "B"])
        embeddings = list(enumerate_embeddings(query, target))
        assert len(embeddings) == 2

    def test_pseudo_iso_honors_wildcards(self):
        query = Graph(["A", WILDCARD], [(0, 1)])
        target = Graph(["A", "Q"], [(0, 1)])
        for level in (0, 1, "max"):
            assert pseudo_subgraph_isomorphic(query, target, level)

    def test_pseudo_iso_still_prunes_structure(self):
        # Wildcard star with 3 arms cannot embed in a path.
        query = Graph([WILDCARD] * 4, [(0, 1), (0, 2), (0, 3)])
        target = path_graph(["A"] * 6)
        assert not pseudo_subgraph_isomorphic(query, target, 1)


class TestWildcardQueries:
    @pytest.fixture(scope="class")
    def tree_and_db(self, request):
        db = [
            Graph(["C", "O", "N"], [(0, 1), (1, 2)], name="c-o-n"),
            Graph(["C", "O", "S"], [(0, 1), (1, 2)], name="c-o-s"),
            Graph(["C", "N", "S"], [(0, 1), (1, 2)], name="c-n-s"),
            Graph(["C", "O"], [(0, 1)], name="c-o"),
        ]
        return bulk_load(db, min_fanout=2), db

    def test_wildcard_subgraph_query(self, tree_and_db):
        tree, db = tree_and_db
        # C-O-? : a chain where the third atom is anything.
        query = Graph(["C", "O", WILDCARD], [(0, 1), (1, 2)])
        answers, stats = subgraph_query(tree, query)
        names = sorted(tree.get(g).name for g in answers)
        assert names == ["c-o-n", "c-o-s"]
        assert stats.candidates >= stats.answers

    def test_wildcard_center_query(self, tree_and_db):
        tree, _ = tree_and_db
        # ? bonded to both C and N: only c-o-n's O qualifies (in c-n-s the
        # N-adjacent vertices are C and S, neither adjacent to both).
        query = Graph([WILDCARD, "C", "N"], [(0, 1), (0, 2)])
        answers, _ = subgraph_query(tree, query)
        assert [tree.get(g).name for g in answers] == ["c-o-n"]

    def test_wildcard_matches_brute_force(self, chem_db_small):
        tree = bulk_load(chem_db_small, min_fanout=3)
        query = Graph(["C", WILDCARD, "C"], [(0, 1), (1, 2)])
        answers, _ = subgraph_query(tree, query, level="max")
        expected = [
            gid for gid, g in tree.graphs() if subgraph_isomorphic(query, g)
        ]
        assert sorted(answers) == sorted(expected)

    def test_graphgrep_rejects_wildcards(self, tree_and_db):
        _, db = tree_and_db
        index = GraphGrepIndex.build(db, lp=2)
        query = Graph(["C", WILDCARD], [(0, 1)])
        with pytest.raises(ConfigError):
            index.query(query)
        with pytest.raises(ConfigError):
            index.candidates(query)
