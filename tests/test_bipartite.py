"""Unit tests for the Hopcroft-Karp implementation, cross-validated against
networkx."""

import random

import networkx as nx
import pytest

from repro.matching.bipartite import hopcroft_karp
from oracles.bipartite import has_semi_perfect_matching, matching_size


def _random_bipartite(rng, n_left, n_right, p):
    return [
        [v for v in range(n_right) if rng.random() < p]
        for _ in range(n_left)
    ]


def _nx_matching_size(n_left, n_right, adjacency):
    g = nx.Graph()
    g.add_nodes_from(range(n_left), bipartite=0)
    g.add_nodes_from(range(n_left, n_left + n_right), bipartite=1)
    for u, nbrs in enumerate(adjacency):
        for v in nbrs:
            g.add_edge(u, n_left + v)
    matching = nx.bipartite.maximum_matching(g, top_nodes=range(n_left))
    return sum(1 for k in matching if k < n_left)


class TestHopcroftKarp:
    def test_empty(self):
        assert hopcroft_karp(0, 0, []) == {}

    def test_perfect_matching(self):
        adjacency = [[0, 1], [1, 2], [2]]
        m = hopcroft_karp(3, 3, adjacency)
        assert len(m) == 3
        assert set(m.values()) == {0, 1, 2}

    def test_matching_is_valid(self):
        adjacency = [[0], [0, 1], [1, 2]]
        m = hopcroft_karp(3, 3, adjacency)
        for u, v in m.items():
            assert v in adjacency[u]
        assert len(set(m.values())) == len(m)

    def test_augmenting_path_needed(self):
        # Greedy would match 0->0 and block 1; HK must augment.
        adjacency = [[0, 1], [0]]
        assert matching_size(2, 2, adjacency) == 2

    def test_isolated_left_vertex(self):
        adjacency = [[0], []]
        assert matching_size(2, 1, adjacency) == 1

    @pytest.mark.parametrize("seed", range(8))
    def test_against_networkx(self, seed):
        rng = random.Random(seed)
        n_left = rng.randrange(1, 12)
        n_right = rng.randrange(1, 12)
        adjacency = _random_bipartite(rng, n_left, n_right, 0.3)
        if all(not nbrs for nbrs in adjacency):
            adjacency[0] = [0] if n_right else []
        ours = matching_size(n_left, n_right, adjacency)
        theirs = _nx_matching_size(n_left, n_right, adjacency)
        assert ours == theirs


class TestSemiPerfect:
    def test_saturating_left(self):
        assert has_semi_perfect_matching(2, 3, [[0, 1], [1, 2]])

    def test_left_bigger_than_right(self):
        assert not has_semi_perfect_matching(3, 2, [[0], [1], [0, 1]])

    def test_empty_neighbor_list_fails_fast(self):
        assert not has_semi_perfect_matching(2, 2, [[0], []])

    def test_structural_blocking(self):
        # Both left vertices only like right vertex 0.
        assert not has_semi_perfect_matching(2, 2, [[0], [0]])

    def test_zero_left_vertices(self):
        assert has_semi_perfect_matching(0, 3, [])
