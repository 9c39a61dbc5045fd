"""Unit tests for repro.graphs.graph."""

import pytest

from repro.exceptions import GraphError
from repro.graphs.graph import Graph
from oracles.graphs import is_connected, relabeled

from conftest import path_graph, star, triangle


class TestConstruction:
    def test_empty_graph(self):
        g = Graph()
        assert g.num_vertices == 0
        assert g.num_edges == 0
        assert list(g.vertices()) == []
        assert list(g.edges()) == []

    def test_vertices_and_edges(self):
        g = Graph(["A", "B", "C"], [(0, 1), (1, 2)])
        assert g.num_vertices == 3
        assert g.num_edges == 2
        assert g.label(0) == "A"
        assert g.label(2) == "C"

    def test_edge_with_label(self):
        g = Graph(["A", "B"], [(0, 1, "double")])
        assert g.edge_label(0, 1) == "double"
        assert g.edge_label(1, 0) == "double"

    def test_add_vertex_returns_new_id(self):
        g = Graph(["A"])
        assert g.add_vertex("B") == 1
        assert g.add_vertex("C") == 2
        assert g.num_vertices == 3

    def test_self_loop_rejected(self):
        g = Graph(["A"])
        with pytest.raises(GraphError):
            g.add_edge(0, 0)

    def test_duplicate_edge_rejected(self):
        g = Graph(["A", "B"], [(0, 1)])
        with pytest.raises(GraphError):
            g.add_edge(0, 1)
        with pytest.raises(GraphError):
            g.add_edge(1, 0)

    def test_out_of_range_edge_rejected(self):
        g = Graph(["A", "B"])
        with pytest.raises(GraphError):
            g.add_edge(0, 5)
        with pytest.raises(GraphError):
            g.add_edge(-1, 0)


class TestAccessors:
    def test_neighbors_and_degree(self):
        g = star("X", ["A", "B", "C"])
        assert sorted(g.neighbors(0)) == [1, 2, 3]
        assert g.degree(0) == 3
        assert g.degree(1) == 1

    def test_edges_iterates_once_per_edge(self):
        g = triangle()
        edges = list(g.edges())
        assert len(edges) == 3
        assert all(u < v for u, v, _ in edges)

    def test_label_set_protocol(self):
        g = Graph(["A"])
        assert g.label_set(0) == frozenset(["A"])

    def test_edge_label_set_protocol(self):
        g = Graph(["A", "B"], [(0, 1)])
        assert g.edge_label_set(0, 1) == frozenset([None])

    def test_edge_label_missing_raises(self):
        g = Graph(["A", "B"])
        with pytest.raises(GraphError):
            g.edge_label(0, 1)


class TestDerivedGraphs:
    def test_copy_is_independent(self):
        g = triangle()
        h = g.copy()
        h.add_vertex("Z")
        h.add_edge(0, 3)
        assert g.num_vertices == 3
        assert g.num_edges == 3
        assert h.num_vertices == 4

    def test_subgraph_renumbers(self):
        g = path_graph(["A", "B", "C", "D"])
        sub = g.subgraph([1, 2, 3])
        assert sub.num_vertices == 3
        assert [sub.label(v) for v in sub.vertices()] == ["B", "C", "D"]
        assert sub.has_edge(0, 1) and sub.has_edge(1, 2)
        assert sub.num_edges == 2

    def test_subgraph_keeps_internal_edges_only(self):
        g = triangle()
        sub = g.subgraph([0, 2])
        assert sub.num_edges == 1

    def test_subgraph_duplicate_vertices_rejected(self):
        with pytest.raises(GraphError):
            triangle().subgraph([0, 0])

    def test_relabeled_is_isomorphic_structure(self):
        g = path_graph(["A", "B", "C"])
        h = relabeled(g, [2, 0, 1])  # old 0 -> 2, old 1 -> 0, old 2 -> 1
        assert h.label(2) == "A"
        assert h.label(0) == "B"
        assert h.label(1) == "C"
        assert h.has_edge(2, 0)
        assert h.has_edge(0, 1)

    def test_relabeled_requires_permutation(self):
        with pytest.raises(GraphError):
            relabeled(triangle(), [0, 0, 1])


class TestStructure:
    def test_connectivity(self):
        assert is_connected(triangle())
        assert is_connected(Graph())
        assert is_connected(Graph(["A"]))
        g = Graph(["A", "B", "C"], [(0, 1)])
        assert not is_connected(g)

    def test_bfs_levels(self):
        g = path_graph(["A", "B", "C", "D"])
        levels = g.bfs_levels(0)
        assert levels == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_bfs_levels_bounded(self):
        g = path_graph(["A", "B", "C", "D"])
        levels = g.bfs_levels(0, max_level=2)
        assert levels == {0: 0, 1: 1, 2: 2}


class TestEqualityAndSignature:
    def test_structure_equal(self):
        assert triangle() == triangle()
        assert triangle() != path_graph(["A", "B", "C"])

    def test_signature_invariant_under_relabeling(self):
        g = path_graph(["A", "B", "C", "A"])
        h = relabeled(g, [3, 1, 0, 2])
        assert g.signature() == h.signature()

    def test_signature_separates_different_graphs(self):
        assert triangle().signature() != path_graph(["A", "B", "C"]).signature()

    def test_hash_consistent_with_eq(self):
        assert hash(triangle()) == hash(triangle())


class TestSerialization:
    def test_roundtrip(self):
        g = Graph(["A", "B"], [(0, 1, "x")], name="demo")
        h = Graph.from_dict(g.to_dict())
        assert h == g
        assert h.name == "demo"

    def test_roundtrip_unlabeled_edges(self):
        g = triangle()
        assert Graph.from_dict(g.to_dict()) == g

    def test_repr_mentions_counts(self):
        assert "|V|=3" in repr(triangle())
