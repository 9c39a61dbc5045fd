"""Unit tests for repro.graphs.mapping (costs under a mapping, Defs. 2-6)."""

import pytest

from repro.exceptions import MappingError
from repro.graphs.closure import EPSILON, GraphClosure, closure_under_mapping
from repro.graphs.graph import Graph
from repro.graphs.mapping import (
    DUMMY_SET,
    GraphMapping,
    uniform_set_distance,
    uniform_set_similarity,
)
from oracles.graphs import subgraph_cost

from conftest import path_graph, triangle


class TestUniformMeasures:
    def test_distance_zero_iff_intersecting(self):
        assert uniform_set_distance(frozenset("A"), frozenset("A")) == 0.0
        assert uniform_set_distance(frozenset("A"), frozenset("B")) == 1.0
        assert uniform_set_distance(frozenset({"A", "B"}), frozenset("B")) == 0.0

    def test_similarity_complementary(self):
        for s1, s2 in [(frozenset("A"), frozenset("A")),
                       (frozenset("A"), frozenset("B"))]:
            assert uniform_set_similarity(s1, s2) == 1.0 - uniform_set_distance(s1, s2)

    def test_dummy_never_matches_real_label(self):
        assert uniform_set_distance(DUMMY_SET, frozenset("A")) == 1.0

    def test_dummy_matches_epsilon_closure(self):
        # A closure vertex containing ε can be "absent": distance 0 to dummy.
        assert uniform_set_distance(DUMMY_SET, frozenset({"A", EPSILON})) == 0.0


class TestValidation:
    def test_must_cover_all_vertices(self):
        g1, g2 = Graph(["A", "B"]), Graph(["A"])
        with pytest.raises(MappingError):
            GraphMapping(g1, g2, [(0, 0)])

    def test_no_double_dummy(self):
        g1, g2 = Graph(["A"]), Graph(["A"])
        with pytest.raises(MappingError):
            GraphMapping(g1, g2, [(0, 0), (None, None)])

    def test_injective(self):
        g1, g2 = Graph(["A", "B"]), Graph(["A"])
        with pytest.raises(MappingError):
            GraphMapping(g1, g2, [(0, 0), (1, 0)])

    def test_from_partial_fills_dummies(self):
        g1 = Graph(["A", "B"])
        g2 = Graph(["A", "C", "D"])
        m = GraphMapping.from_partial(g1, g2, {0: 0})
        assert m.image(0) == 0
        assert m.image(1) is None
        # all of g2 covered
        covered = {v for _, v in m.pairs if v is not None}
        assert covered == {0, 1, 2}

    def test_from_partial_rejects_non_injective(self):
        g1 = Graph(["A", "B"])
        g2 = Graph(["A"])
        with pytest.raises(MappingError):
            GraphMapping.from_partial(g1, g2, {0: 0, 1: 0})


class TestEditCost:
    def test_identical_graphs_cost_zero(self):
        g = triangle()
        m = GraphMapping(g, g, [(0, 0), (1, 1), (2, 2)])
        assert m.edit_cost() == 0.0

    def test_label_mismatch_costs_one(self):
        g1 = Graph(["A"])
        g2 = Graph(["B"])
        m = GraphMapping(g1, g2, [(0, 0)])
        assert m.edit_cost() == 1.0

    def test_all_dummy_cost_is_sum_of_norms(self):
        g1 = path_graph(["A", "B"])   # 2 vertices + 1 edge
        g2 = Graph(["C"])             # 1 vertex
        m = GraphMapping.from_partial(g1, g2, {})
        assert m.edit_cost() == 4.0

    def test_edge_mismatch_costs(self):
        # Same vertices, different edge placement.
        g1 = Graph(["A", "B", "C"], [(0, 1)])
        g2 = Graph(["A", "B", "C"], [(1, 2)])
        m = GraphMapping(g1, g2, [(0, 0), (1, 1), (2, 2)])
        # g1's edge maps to nothing (1) and g2's edge is unmatched (1).
        assert m.edit_cost() == 2.0

    def test_paper_example_distance_g1_g2(self):
        """d(G1, G2) = 2 for the Fig. 1 graphs under a good mapping."""
        g1 = Graph(["A", "B", "C", "D"], [(0, 1), (0, 2), (1, 3)])
        g2 = Graph(["A", "B", "D", "C"], [(0, 1), (0, 2), (1, 3)])
        m = GraphMapping(g1, g2, [(0, 0), (1, 1), (2, 2), (3, 3)])
        assert m.edit_cost() == 2.0


class TestSimilarity:
    def test_identical_graphs_full_similarity(self):
        g = triangle()
        m = GraphMapping(g, g, [(0, 0), (1, 1), (2, 2)])
        assert m.similarity() == 6.0  # 3 vertices + 3 edges

    def test_dummy_pairs_contribute_zero(self):
        g1 = Graph(["A", "B"])
        g2 = Graph(["A"])
        m = GraphMapping.from_partial(g1, g2, {0: 0})
        assert m.similarity() == 1.0

    def test_edge_counts_only_when_both_present(self):
        g1 = Graph(["A", "B"], [(0, 1)])
        g2 = Graph(["A", "B"])
        m = GraphMapping(g1, g2, [(0, 0), (1, 1)])
        assert m.similarity() == 2.0


class TestSubgraphCost:
    def test_true_subgraph_costs_zero(self):
        g = triangle()
        sub = g.subgraph([0, 1])
        m = GraphMapping.from_partial(sub, g, {0: 0, 1: 1})
        assert subgraph_cost(m) == 0.0

    def test_extra_target_structure_is_free(self):
        small = Graph(["A"])
        big = triangle()
        m = GraphMapping.from_partial(small, big, {0: 0})
        assert subgraph_cost(m) == 0.0
        # ... but the symmetric edit cost is not free.
        assert m.edit_cost() == 5.0

    def test_unmapped_query_vertex_costs(self):
        g1 = Graph(["A", "Z"])
        g2 = Graph(["A"])
        m = GraphMapping.from_partial(g1, g2, {0: 0})
        assert subgraph_cost(m) == 1.0


class TestClosureSemantics:
    def test_min_distance_uses_set_intersection(self):
        c1 = GraphClosure([{"A", "B"}])
        c2 = GraphClosure([{"B", "C"}])
        m = GraphMapping(c1, c2, [(0, 0)])
        assert m.edit_cost() == 0.0  # can agree on B

    def test_closure_method_returns_closure(self):
        g1 = path_graph(["A", "B"])
        g2 = path_graph(["A", "C"])
        m = GraphMapping(g1, g2, [(0, 0), (1, 1)])
        c = m.closure()
        assert c == closure_under_mapping(g1, g2, [(0, 0), (1, 1)])
