"""Unit tests for insertion/split policies (Sections 5.2-5.3)."""

import random

import pytest

from repro.exceptions import ConfigError
from repro.graphs.graph import Graph
from repro.matching.nbm import nbm_mapping
from repro.graphs.closure import as_closure
from repro.ctree.policies import (
    CLOSURE_INSERT_POLICIES,
    CLOSURE_SPLIT_POLICIES,
    choose_closure_min_overlap,
    choose_closure_min_volume,
    choose_closure_random,
    choose_merge_sibling,
    partition_closures_linear,
    partition_closures_optimal,
    partition_closures_random,
    resolve_closure_insert_policy,
    resolve_closure_split_policy,
)

from conftest import path_graph


def _closures(graphs):
    """The member closures of a leaf holding ``graphs`` — the form every
    policy receives (one summary per child)."""
    return [as_closure(g) for g in graphs]


@pytest.fixture
def two_clusters():
    """Four children in two obvious clusters: AB-like and XY-like."""
    return _closures([
        path_graph(["A", "B"]),
        path_graph(["A", "B", "B"]),
        path_graph(["X", "Y"]),
        path_graph(["X", "Y", "Y"]),
    ])


class TestInsertPolicies:
    def test_registry(self):
        assert set(CLOSURE_INSERT_POLICIES) == \
            {"random", "min_volume", "min_overlap"}
        assert resolve_closure_insert_policy("min_volume") \
            is choose_closure_min_volume
        with pytest.raises(ConfigError):
            resolve_closure_insert_policy("bogus")

    def test_every_policy_returns_index_and_optional_fold(self, two_clusters):
        """One signature for the whole registry: the chosen child, plus
        that child's enlarged closure where the policy computed it anyway
        (``min_volume`` — the tree reuses it instead of folding again)."""
        g = path_graph(["X", "Y"])
        for name, policy in CLOSURE_INSERT_POLICIES.items():
            index, enlarged = policy(two_clusters, g, nbm_mapping,
                                     random.Random(0))
            assert 0 <= index < 4
            if name == "min_volume":
                assert enlarged == \
                    nbm_mapping(two_clusters[index], g).closure()
            else:
                assert enlarged is None
        assert choose_merge_sibling is choose_closure_min_volume

    def test_random_in_range(self, two_clusters):
        rng = random.Random(0)
        for _ in range(10):
            i, _ = choose_closure_random(two_clusters, path_graph(["A"]),
                                         nbm_mapping, rng)
            assert 0 <= i < 4

    def test_min_volume_picks_similar_child(self, two_clusters):
        rng = random.Random(0)
        g = path_graph(["A", "B"])
        i, _ = choose_closure_min_volume(two_clusters, g, nbm_mapping, rng)
        assert i in (0, 1)  # the AB cluster
        g = path_graph(["X", "Y"])
        i, _ = choose_closure_min_volume(two_clusters, g, nbm_mapping, rng)
        assert i in (2, 3)

    def test_min_overlap_picks_similar_child(self, two_clusters):
        rng = random.Random(0)
        i, _ = choose_closure_min_overlap(
            two_clusters, path_graph(["X", "Y"]), nbm_mapping, rng
        )
        assert i in (2, 3)


class TestSplitPolicies:
    def test_registry(self):
        assert set(CLOSURE_SPLIT_POLICIES) == {"random", "linear", "optimal"}
        assert resolve_closure_split_policy("linear") \
            is partition_closures_linear
        with pytest.raises(ConfigError):
            resolve_closure_split_policy("bogus")

    def test_random_split_even(self, two_clusters):
        g1, g2 = partition_closures_random(
            two_clusters, nbm_mapping, random.Random(0), 2
        )
        assert sorted(g1 + g2) == [0, 1, 2, 3]
        assert abs(len(g1) - len(g2)) <= 1

    def test_linear_split_separates_clusters(self, two_clusters):
        g1, g2 = partition_closures_linear(
            two_clusters, nbm_mapping, random.Random(0), 2
        )
        assert sorted(g1 + g2) == [0, 1, 2, 3]
        groups = {frozenset(g1), frozenset(g2)}
        assert groups == {frozenset({0, 1}), frozenset({2, 3})}

    def test_optimal_split_separates_clusters(self, two_clusters):
        g1, g2 = partition_closures_optimal(
            two_clusters, nbm_mapping, random.Random(0), 2
        )
        groups = {frozenset(g1), frozenset(g2)}
        assert groups == {frozenset({0, 1}), frozenset({2, 3})}

    def test_optimal_split_respects_min_fanout(self):
        closures = _closures([Graph(["A"]) for _ in range(5)])
        g1, g2 = partition_closures_optimal(closures, nbm_mapping, random.Random(0), 2)
        assert len(g1) >= 2 and len(g2) >= 2

    def test_optimal_split_size_cap(self):
        closures = _closures([Graph(["A"]) for _ in range(17)])
        with pytest.raises(ConfigError):
            partition_closures_optimal(closures, nbm_mapping, random.Random(0), 2)

    def test_linear_split_deterministic_per_seed(self, two_clusters):
        a = partition_closures_linear(two_clusters, nbm_mapping, random.Random(5), 2)
        b = partition_closures_linear(two_clusters, nbm_mapping, random.Random(5), 2)
        assert a == b
