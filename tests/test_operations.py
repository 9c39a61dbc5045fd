"""Unit tests for repro.graphs.operations."""

import random
from collections import Counter

import pytest

from repro.exceptions import GraphError
from repro.graphs.graph import Graph
from repro.graphs.operations import random_connected_subgraph
from oracles.graphs import is_connected, vertex_permuted

from conftest import path_graph, random_labeled_graph, triangle


class TestRandomConnectedSubgraph:
    def test_size_and_connectivity(self, rng):
        g = random_labeled_graph(rng, 20)
        for size in (1, 5, 10, 20):
            sub = random_connected_subgraph(g, size, rng)
            assert sub.num_vertices == size
            assert is_connected(sub)

    def test_labels_preserved(self, rng):
        g = path_graph(["A", "B", "C", "D", "E"])
        sub = random_connected_subgraph(g, 3, rng)
        labels = {sub.label(v) for v in sub.vertices()}
        assert labels <= {"A", "B", "C", "D", "E"}

    def test_too_large_rejected(self, rng):
        with pytest.raises(GraphError):
            random_connected_subgraph(triangle(), 4, rng)

    def test_zero_size_rejected(self, rng):
        with pytest.raises(GraphError):
            random_connected_subgraph(triangle(), 0, rng)

    def test_disconnected_graph_respects_components(self, rng):
        g = Graph(["A", "B", "C", "D"], [(0, 1), (2, 3)])
        # No connected subgraph of size 3 exists.
        with pytest.raises(GraphError):
            random_connected_subgraph(g, 3, rng)
        sub = random_connected_subgraph(g, 2, rng)
        assert is_connected(sub)

    def test_deterministic_given_rng(self):
        g = random_labeled_graph(random.Random(1), 15)
        s1 = random_connected_subgraph(g, 6, random.Random(7))
        s2 = random_connected_subgraph(g, 6, random.Random(7))
        assert s1 == s2


class TestVertexPermuted:
    def test_preserves_multisets(self, rng):
        g = random_labeled_graph(rng, 12)
        h = vertex_permuted(g, rng)
        assert Counter(map(g.label, g.vertices())) \
            == Counter(map(h.label, h.vertices()))
        assert g.num_edges == h.num_edges
        assert g.signature() == h.signature()
