"""Unit tests for pseudo subgraph isomorphism (Section 6.1, Alg. 2)."""

import random

import pytest

from repro.exceptions import ConfigError
from repro.graphs.closure import closure_under_mapping
from repro.graphs.graph import Graph
from repro.graphs.operations import random_connected_subgraph
from repro.matching.pseudo_iso import (
    pseudo_compatibility_domains,
    pseudo_subgraph_isomorphic,
)
from repro.matching.ullmann import subgraph_isomorphic
from oracles.pseudo_iso import level0_domains

from conftest import path_graph, random_labeled_graph, star, triangle


class TestLevel0:
    def test_label_intersection(self):
        q = Graph(["A", "Z"])
        t = Graph(["A", "B"])
        domains = level0_domains(q, t)
        assert domains[0] == {0}
        assert domains[1] == set()

    def test_level_validation(self):
        with pytest.raises(ConfigError):
            pseudo_subgraph_isomorphic(triangle(), triangle(), level=-1)
        with pytest.raises(ConfigError):
            pseudo_subgraph_isomorphic(triangle(), triangle(), level="bogus")


class TestSoundness:
    """Lemma 1: a true embedding survives every level — no false negatives."""

    @pytest.mark.parametrize("level", [0, 1, 2, "max"])
    def test_extracted_subgraphs_always_pass(self, level, rng):
        for _ in range(10):
            g = random_labeled_graph(rng, 12)
            q = random_connected_subgraph(g, rng.randrange(2, 9), rng)
            assert pseudo_subgraph_isomorphic(q, g, level)

    @pytest.mark.parametrize("level", [0, 1, "max"])
    def test_never_false_negative_random(self, level):
        rng = random.Random(31)
        for _ in range(25):
            q = random_labeled_graph(rng, rng.randrange(2, 5), num_labels=2)
            t = random_labeled_graph(rng, rng.randrange(2, 8), num_labels=2)
            if subgraph_isomorphic(q, t):
                assert pseudo_subgraph_isomorphic(q, t, level)

    def test_closure_targets_no_false_negative(self, rng):
        g1 = random_labeled_graph(rng, 8)
        g2 = random_labeled_graph(rng, 8)
        c = closure_under_mapping(g1, g2, [(i, i) for i in range(8)])
        q = random_connected_subgraph(g1, 4, rng)
        assert pseudo_subgraph_isomorphic(q, c, "max")


class TestFilteringPower:
    def test_size_pruning(self):
        assert not pseudo_subgraph_isomorphic(triangle(), Graph(["A"]), 0)

    def test_empty_query(self):
        assert pseudo_subgraph_isomorphic(Graph(), triangle(), "max")

    def test_level1_catches_neighborhood_mismatch(self):
        # Star center needs 3 same-label neighbors; path offers at most 2.
        q = star("C", ["C", "C", "C"])
        t = path_graph(["C"] * 8)
        assert pseudo_subgraph_isomorphic(q, t, 0)  # labels alone pass
        assert not pseudo_subgraph_isomorphic(q, t, 1)

    def test_higher_levels_monotone(self):
        """Surviving level n+1 implies surviving level n (refinement only
        removes compatibility)."""
        rng = random.Random(77)
        for _ in range(20):
            q = random_labeled_graph(rng, rng.randrange(2, 6), num_labels=2)
            t = random_labeled_graph(rng, rng.randrange(2, 8), num_labels=2)
            results = [
                pseudo_subgraph_isomorphic(q, t, level) for level in (0, 1, 2, "max")
            ]
            for earlier, later in zip(results, results[1:]):
                if later:
                    assert earlier

    def test_paper_figure5_level_progression(self):
        """The Fig. 5 pattern: passes levels 0-1, fails at level 2.

        G1 is a triangle A-B-C.  G2 contains vertices that locally look
        right (level 0/1) but no actual triangle, so deeper refinement
        rejects.
        """
        g1 = Graph(["A", "B", "C"], [(0, 1), (0, 2), (1, 2)])
        g2 = Graph(
            ["A", "B", "C", "B", "C"],
            [(0, 1), (0, 2), (3, 4), (1, 4)],
        )
        assert pseudo_subgraph_isomorphic(g1, g2, 0)
        assert not pseudo_subgraph_isomorphic(g1, g2, "max")
        assert not subgraph_isomorphic(g1, g2)


class TestConvergence:
    def test_max_level_equals_large_finite_level(self):
        rng = random.Random(99)
        for _ in range(15):
            q = random_labeled_graph(rng, rng.randrange(2, 6), num_labels=2)
            t = random_labeled_graph(rng, rng.randrange(2, 8), num_labels=2)
            n = q.num_vertices * t.num_vertices
            assert pseudo_subgraph_isomorphic(q, t, "max") == (
                pseudo_subgraph_isomorphic(q, t, n + 5)
            )

    def test_domains_shrink_monotonically(self, rng):
        q = random_labeled_graph(rng, 5, num_labels=2)
        t = random_labeled_graph(rng, 8, num_labels=2)
        d0 = pseudo_compatibility_domains(q, t, 0)
        d1 = pseudo_compatibility_domains(q, t, 1)
        dmax = pseudo_compatibility_domains(q, t, "max")
        for a, b, c in zip(d0, d1, dmax):
            assert c <= b <= a


class TestUllmannSeeding:
    def test_domains_contain_real_embedding(self, rng):
        for _ in range(10):
            g = random_labeled_graph(rng, 10)
            q = random_connected_subgraph(g, 5, rng)
            domains = pseudo_compatibility_domains(q, g, "max")
            from repro.matching.ullmann import find_embedding

            embedding = find_embedding(q, g, domains)
            assert embedding is not None
