"""Unit tests for repro.graphs.closure."""

import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import GraphError, MappingError
from repro.graphs.closure import (
    EPSILON,
    GraphClosure,
    as_closure,
    closure_under_mapping,
)
from repro.graphs.graph import Graph
from repro.graphs.mapping import GraphMapping

from conftest import path_graph, triangle


class TestEpsilon:
    def test_singleton(self):
        from repro.graphs.closure import _Epsilon

        assert _Epsilon() is EPSILON

    def test_repr(self):
        assert repr(EPSILON) == "ε"

    def test_pickle_preserves_identity(self):
        import pickle

        assert pickle.loads(pickle.dumps(EPSILON)) is EPSILON


class TestConstruction:
    def test_from_graph_singleton_sets(self):
        c = GraphClosure.from_graph(triangle())
        assert c.num_vertices == 3
        assert c.num_edges == 3
        assert c.label_set(0) == frozenset(["A"])
        assert c.edge_label_set(0, 1) == frozenset([None])

    def test_empty_label_set_rejected(self):
        with pytest.raises(GraphError):
            GraphClosure([set()])
        c = GraphClosure([{"A"}, {"B"}])
        with pytest.raises(GraphError):
            c.add_edge(0, 1, set())

    def test_duplicate_edge_rejected(self):
        c = GraphClosure([{"A"}, {"B"}])
        c.add_edge(0, 1, {"x"})
        with pytest.raises(GraphError):
            c.add_edge(1, 0, {"x"})

    def test_as_closure_passthrough(self):
        c = GraphClosure.from_graph(triangle())
        assert as_closure(c) is c
        assert isinstance(as_closure(triangle()), GraphClosure)

    def test_as_closure_rejects_other_types(self):
        with pytest.raises(GraphError):
            as_closure("not a graph")


class TestClosureUnderMapping:
    def test_identical_graphs_full_mapping(self):
        g = triangle()
        c = closure_under_mapping(g, g, [(0, 0), (1, 1), (2, 2)])
        assert c.num_vertices == 3
        assert c.num_edges == 3
        # No dummies anywhere: perfect overlap.
        assert all(EPSILON not in c.label_set(v) for v in c.vertices())
        assert c.min_num_vertices() == 3
        assert c.min_num_edges() == 3

    def test_label_union_on_mismatch(self):
        g1 = Graph(["A", "B"], [(0, 1)])
        g2 = Graph(["A", "C"], [(0, 1)])
        c = closure_under_mapping(g1, g2, [(0, 0), (1, 1)])
        assert c.label_set(1) == frozenset(["B", "C"])

    def test_dummy_vertex_gets_epsilon(self):
        g1 = Graph(["A", "B"], [(0, 1)])
        g2 = Graph(["A"])
        c = closure_under_mapping(g1, g2, [(0, 0), (1, None)])
        assert c.label_set(1) == frozenset(["B", EPSILON])
        assert c.min_num_vertices() == 1

    def test_edge_present_on_one_side_gets_epsilon(self):
        g1 = Graph(["A", "B"], [(0, 1)])
        g2 = Graph(["A", "B"])
        c = closure_under_mapping(g1, g2, [(0, 0), (1, 1)])
        assert c.edge_label_set(0, 1) == frozenset([None, EPSILON])
        assert c.min_num_edges() == 0

    def test_paper_figure2_c1(self):
        """closure(G1, G2) from Fig. 2: mismatched C/D leaves produce a
        {C, D} vertex closure and dangling dummy edges."""
        g1 = Graph(["A", "B", "C", "D"], [(0, 1), (0, 2), (1, 3)])
        g2 = Graph(["A", "B", "D", "C"], [(0, 1), (0, 2), (1, 3)])
        c = closure_under_mapping(
            g1, g2, [(0, 0), (1, 1), (2, 2), (3, 3)]
        )
        assert c.label_set(2) == frozenset(["C", "D"])
        assert c.label_set(3) == frozenset(["D", "C"])
        assert c.num_edges == 3

    def test_mapping_must_cover_both_graphs(self):
        g1 = Graph(["A", "B"])
        g2 = Graph(["A"])
        with pytest.raises(MappingError):
            closure_under_mapping(g1, g2, [(0, 0)])

    def test_double_dummy_pair_rejected(self):
        g1 = Graph(["A"])
        g2 = Graph(["A"])
        with pytest.raises(MappingError):
            closure_under_mapping(g1, g2, [(0, 0), (None, None)])

    def test_duplicate_vertex_rejected(self):
        g1 = Graph(["A", "B"])
        g2 = Graph(["A", "B"])
        with pytest.raises(MappingError):
            closure_under_mapping(g1, g2, [(0, 0), (0, 1), (1, None)])

    def test_closure_of_closures(self):
        c1 = GraphClosure([{"A"}, {"B", "C"}])
        c1.add_edge(0, 1, {None})
        c2 = GraphClosure([{"A"}, {"D"}])
        c2.add_edge(0, 1, {None})
        c = closure_under_mapping(c1, c2, [(0, 0), (1, 1)])
        assert c.label_set(1) == frozenset(["B", "C", "D"])


class TestVolume:
    def test_singleton_closure_has_zero_log_volume(self):
        assert GraphClosure.from_graph(triangle()).log_volume() == 0.0

    def test_log_volume_grows_with_label_sets(self):
        g1 = Graph(["A", "B"], [(0, 1)])
        g2 = Graph(["A", "C"], [(0, 1)])
        c = closure_under_mapping(g1, g2, [(0, 0), (1, 1)])
        assert c.log_volume() > 0.0

    def test_log_volume_monotone_in_growth(self):
        g1 = path_graph(["A", "B", "C"])
        g2 = path_graph(["A", "B", "D"])
        small = closure_under_mapping(g1, g1, [(i, i) for i in range(3)])
        big = closure_under_mapping(g1, g2, [(i, i) for i in range(3)])
        assert big.log_volume() > small.log_volume()


class TestCopyEqualitySerialization:
    def test_copy_independent(self):
        c = GraphClosure.from_graph(triangle())
        d = c.copy()
        d.add_vertex({"Z"})
        assert c.num_vertices == 3
        assert d.num_vertices == 4

    def test_equality(self):
        assert GraphClosure.from_graph(triangle()) == GraphClosure.from_graph(
            triangle()
        )

    def test_roundtrip_with_epsilon(self):
        g1 = Graph(["A", "B"], [(0, 1)])
        g2 = Graph(["A"])
        c = closure_under_mapping(g1, g2, [(0, 0), (1, None)])
        d = GraphClosure.from_dict(c.to_dict())
        assert d == c
        assert EPSILON in d.label_set(1)

    def test_roundtrip_plain(self):
        c = GraphClosure.from_graph(triangle())
        assert GraphClosure.from_dict(c.to_dict()) == c


# ----------------------------------------------------------------------
# The direct fill against an add_edge-built reference
# ----------------------------------------------------------------------
def reference_singleton(g: Graph) -> GraphClosure:
    """``from_graph`` spelled with the checked mutators."""
    c = GraphClosure([g.label_set(v) for v in g.vertices()])
    for u, v, label in g.edges():
        c.add_edge(u, v, frozenset((label,)))
    return c


def reference_closure(g1, g2, pairs) -> GraphClosure:
    """Definition 8 with every edge added through ``add_edge``: the g1
    edges in ``edges()`` order, then the g2 edges no g1 edge maps onto."""
    c1 = g1 if isinstance(g1, GraphClosure) else reference_singleton(g1)
    c2 = g2 if isinstance(g2, GraphClosure) else reference_singleton(g2)
    eps = frozenset((EPSILON,))
    result = GraphClosure([
        c2.label_set(v) | eps if u is None else
        c1.label_set(u) | eps if v is None else
        c1.label_set(u) | c2.label_set(v) for u, v in pairs])
    id1 = {u: i for i, (u, _) in enumerate(pairs) if u is not None}
    id2 = {v: i for i, (_, v) in enumerate(pairs) if v is not None}
    edges: dict = {}
    for a, b, s in c1.edges():
        edges[frozenset((id1[a], id1[b]))] = [s, None]
    for a, b, s in c2.edges():
        edges.setdefault(frozenset((id2[a], id2[b])), [None, None])[1] = s
    for key, (s1, s2) in edges.items():
        x, y = sorted(key)
        result.add_edge(x, y, s1 | s2 if s1 is not None and s2 is not None
                        else (s1 or s2) | eps)
    return result


def layout(c: GraphClosure):
    """Everything a closure holds, neighbour order included."""
    return (c._vlabels, [list(row.items()) for row in c._adj], c.num_edges)


def plain_log_volume(c: GraphClosure) -> float:
    total = 0.0
    for v in c.vertices():
        total += math.log(len(c.label_set(v)))
    for _, _, s in c.edges():
        total += math.log(len(s))
    return total


@st.composite
def shuffled_graphs(draw, max_vertices=7):
    """Graphs whose edges arrive in a drawn order, so a vertex's
    adjacency order differs from ``edges()`` order."""
    n = draw(st.integers(0, max_vertices))
    g = Graph([draw(st.sampled_from("ABC")) for _ in range(n)])
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    k = draw(st.integers(0, len(pairs)))
    for u, v in draw(st.permutations(pairs))[:k]:
        if draw(st.booleans()):
            u, v = v, u
        g.add_edge(u, v, draw(st.sampled_from([None, "x", "y"])))
    return g


@st.composite
def mapped_pairs(draw, g1, g2):
    """A drawn mapping between two graph-likes, pairs in drawn order."""
    n1, n2 = g1.num_vertices, g2.num_vertices
    k = draw(st.integers(0, min(n1, n2)))
    us = draw(st.permutations(range(n1)))
    vs = draw(st.permutations(range(n2)))
    pairs = list(zip(us[:k], vs[:k]))
    pairs += [(u, None) for u in us[k:]] + [(None, v) for v in vs[k:]]
    return draw(st.permutations(pairs))


@st.composite
def graph_like_pairs(draw):
    """``(g1, g2, pairs)``: graphs or closures folded from them."""
    sides = []
    for _ in range(2):
        g = draw(shuffled_graphs())
        if draw(st.booleans()):
            other = draw(shuffled_graphs())
            g = closure_under_mapping(g, other, draw(mapped_pairs(g, other)))
        sides.append(g)
    g1, g2 = sides
    return g1, g2, draw(mapped_pairs(g1, g2))


class TestDirectFill:
    @given(shuffled_graphs())
    @settings(max_examples=150, deadline=None)
    def test_from_graph_equals_add_edge_reference(self, g):
        c = GraphClosure.from_graph(g)
        ref = reference_singleton(g)
        assert c == ref
        assert layout(c) == layout(ref)

    @given(graph_like_pairs())
    @settings(max_examples=300, deadline=None)
    def test_closure_under_mapping_equals_reference(self, case):
        g1, g2, pairs = case
        ref = reference_closure(g1, g2, pairs)
        for got in (closure_under_mapping(g1, g2, pairs),
                    GraphMapping(g1, g2, pairs).closure()):
            assert got == ref
            assert layout(got) == layout(ref)
            assert got.to_dict() == ref.to_dict()

    @given(graph_like_pairs())
    @settings(max_examples=150, deadline=None)
    def test_log_volume_memo_is_the_plain_sum(self, case):
        g1, g2, pairs = case
        c = closure_under_mapping(g1, g2, pairs)
        assert c.log_volume() == plain_log_volume(c)
        assert c.log_volume() == plain_log_volume(c)  # the memo
        assert c.copy().log_volume() == plain_log_volume(c)
        thawed = pickle.loads(pickle.dumps(c))
        assert thawed.log_volume() == plain_log_volume(c)

    def test_every_mutator_drops_the_log_volume_memo(self):
        c = closure_under_mapping(path_graph("AB"), path_graph("AC"),
                                  [(0, 0), (1, 1)])
        before = c.log_volume()
        c.add_vertex({"A", "B", "C"})
        assert c.log_volume() == plain_log_volume(c) > before
        before = c.log_volume()
        c.add_edge(0, 2, {"x", "y"})
        assert c.log_volume() == plain_log_volume(c) > before
        d = c.copy()
        d.add_vertex({"P", "Q"})
        assert d.log_volume() == plain_log_volume(d) > c.log_volume()
        assert c.log_volume() == plain_log_volume(c)

    def test_unvalidated_mapping_still_checked_by_default(self):
        g = path_graph("AB")
        with pytest.raises(MappingError):
            closure_under_mapping(g, g, [(0, 0)])
