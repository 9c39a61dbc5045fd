"""Unit tests for the edit-distance facade (Defs. 3-6 via heuristic maps)."""

import pytest

from repro.exceptions import ConfigError
from repro.graphs.closure import GraphClosure
from repro.graphs.graph import Graph
from repro.matching.edit_distance import (
    MAPPING_METHODS,
    graph_distance,
    graph_mapping,
    graph_similarity,
)
from oracles.graphs import subgraph_cost
from oracles.state_search import optimal_distance

from conftest import path_graph, random_labeled_graph, triangle


class TestFacade:
    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigError):
            graph_mapping(triangle(), triangle(), method="nope")

    def test_all_methods_registered(self):
        assert set(MAPPING_METHODS) == {
            "nbm", "bipartite", "bipartite_unweighted", "state"
        }

    @pytest.mark.parametrize("method", sorted(MAPPING_METHODS))
    def test_every_method_runs(self, method):
        m = graph_mapping(triangle(), triangle(), method=method)
        assert m.edit_cost() == 0.0


class TestDistance:
    def test_identical_zero(self):
        assert graph_distance(triangle(), triangle()) == 0.0

    def test_heuristic_upper_bounds_optimal(self, rng):
        for _ in range(10):
            g1 = random_labeled_graph(rng, rng.randrange(1, 6))
            g2 = random_labeled_graph(rng, rng.randrange(1, 6))
            assert graph_distance(g1, g2) >= optimal_distance(g1, g2) - 1e-9

    def test_distance_to_empty_graph(self):
        assert graph_distance(triangle(), Graph()) == 6.0


class TestSimilarity:
    def test_identical_full(self):
        assert graph_similarity(triangle(), triangle()) == 6.0

    def test_heuristic_lower_bounds_optimal(self, rng):
        from oracles.state_search import optimal_similarity

        for _ in range(10):
            g1 = random_labeled_graph(rng, rng.randrange(1, 6))
            g2 = random_labeled_graph(rng, rng.randrange(1, 6))
            assert graph_similarity(g1, g2) <= optimal_similarity(g1, g2) + 1e-9


def subgraph_distance(g1, g2, method="nbm"):
    """Def. 5 under a heuristic mapping: how far ``g1`` is from being a
    subgraph of ``g2``."""
    return subgraph_cost(graph_mapping(g1, g2, method))


class TestSubgraphDistance:
    def test_true_subgraph_zero(self, rng):
        from repro.graphs.operations import random_connected_subgraph

        g = random_labeled_graph(rng, 10, num_labels=10)
        q = random_connected_subgraph(g, 4, rng)
        assert subgraph_distance(q, g, method="state") == 0.0

    def test_asymmetric(self):
        small = Graph(["A"])
        # small is a subgraph of the triangle, not vice versa.
        assert subgraph_distance(small, triangle()) == 0.0
        assert subgraph_distance(triangle(), small) > 0.0

    def test_paper_example_dsub(self):
        """dsub(G1, G2) = 0 when G1 maps into G2 exactly (Sec. 2 example)."""
        g1 = Graph(["A", "B", "C"], [(0, 1), (0, 2)])
        g2 = Graph(["A", "B", "C", "D"], [(0, 1), (0, 2), (1, 3)])
        assert subgraph_distance(g1, g2, method="state") == 0.0


class TestClosureMinDistance:
    """Def. 9: the uniform set measures make ``graph_distance`` the
    minimum distance between closures."""

    def test_overlapping_closures_zero(self):
        c1 = GraphClosure([{"A", "B"}])
        c2 = GraphClosure([{"B", "C"}])
        assert graph_distance(c1, c2) == 0.0

    def test_disjoint_closures_positive(self):
        c1 = GraphClosure([{"A"}])
        c2 = GraphClosure([{"Z"}])
        assert graph_distance(c1, c2) > 0.0

    def test_graph_closure_mixed_operands(self):
        c = GraphClosure([{"A", "X"}, {"B"}])
        c.add_edge(0, 1, {None})
        g = path_graph(["A", "B"])
        assert graph_distance(g, c) == 0.0
