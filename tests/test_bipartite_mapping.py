"""Unit tests for the bipartite mapping method (Section 4.2)."""

from repro.graphs.graph import Graph
from repro.matching.bipartite_mapping import (
    bipartite_mapping,
    bipartite_mapping_unweighted,
)
from repro.matching.bounds import sim_upper_bound
from oracles.graphs import matched_pairs

from conftest import path_graph, random_labeled_graph, triangle


class TestUnweighted:
    def test_matches_compatible_labels(self):
        g1 = Graph(["A", "B"])
        g2 = Graph(["B", "A"])
        m = bipartite_mapping_unweighted(g1, g2)
        assert matched_pairs(m) == {0: 1, 1: 0}

    def test_incompatible_labels_stay_dummy(self):
        g1 = Graph(["A", "Z"])
        g2 = Graph(["A", "B"])
        m = bipartite_mapping_unweighted(g1, g2)
        assert matched_pairs(m) == {0: 0}

    def test_vertex_similarity_is_maximal(self):
        # Max-cardinality matching ignores edges entirely, but vertex
        # similarity must equal the multiset label intersection.
        g1 = Graph(["A", "A", "B"])
        g2 = Graph(["A", "B", "B"])
        m = bipartite_mapping_unweighted(g1, g2)
        vertex_sim = sum(
            1 for u, v in matched_pairs(m).items()
            if g1.label(u) == g2.label(v)
        )
        assert vertex_sim == 2


class TestWeighted:
    def test_identical_graphs_full_similarity(self):
        g = triangle()
        m = bipartite_mapping(g, g)
        assert m.edit_cost() == 0.0

    def test_propagation_prefers_structural_match(self):
        # Two A-labeled vertices in g2; only one has the right neighborhood.
        g1 = path_graph(["A", "B"])
        g2 = Graph(["A", "B", "A"], [(0, 1)])
        m = bipartite_mapping(g1, g2)
        assert matched_pairs(m)[0] == 0

    def test_empty_graph(self):
        m = bipartite_mapping(Graph(), triangle())
        assert matched_pairs(m) == {}

    def test_similarity_below_upper_bound(self, rng):
        for _ in range(8):
            g1 = random_labeled_graph(rng, rng.randrange(3, 10))
            g2 = random_labeled_graph(rng, rng.randrange(3, 10))
            m = bipartite_mapping(g1, g2)
            assert m.similarity() <= sim_upper_bound(g1, g2) + 1e-9

    def test_zero_propagation_rounds(self):
        g = triangle()
        m = bipartite_mapping(g, g, propagation_rounds=0)
        assert len(matched_pairs(m)) == 3

    def test_deterministic(self, rng):
        g1 = random_labeled_graph(rng, 10)
        g2 = random_labeled_graph(rng, 10)
        assert bipartite_mapping(g1, g2).pairs == bipartite_mapping(g1, g2).pairs
