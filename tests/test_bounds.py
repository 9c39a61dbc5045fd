"""Unit tests for repro.matching.bounds (Eqn. 7 and derived bounds)."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.closure import WILDCARD, GraphClosure, closure_under_mapping
from repro.graphs.graph import Graph
from repro.graphs.labelspace import label_context, mask_ids
from repro.matching.bounds import (
    SimilarityQueryContext,
    _matching_value,
    _QuerySide,
    distance_lower_bound,
    norm,
    sim_upper_bound,
)
from repro.matching.nbm import nbm_mapping
from oracles.bounds import set_similarity_upper_bound
from oracles.state_search import optimal_distance, optimal_similarity

from conftest import path_graph, random_labeled_graph, triangle


class TestSetSimilarityUpperBound:
    def test_singleton_multiset_intersection(self):
        s1 = [frozenset("A"), frozenset("A"), frozenset("B")]
        s2 = [frozenset("A"), frozenset("C")]
        assert set_similarity_upper_bound(s1, s2) == 1.0

    def test_empty_sides(self):
        assert set_similarity_upper_bound([], [frozenset("A")]) == 0.0

    def test_closure_sets_use_matching(self):
        s1 = [frozenset({"A", "B"}), frozenset({"B"})]
        s2 = [frozenset({"B"}), frozenset({"A"})]
        # {A,B} can take A, {B} takes B: perfect matching of size 2.
        assert set_similarity_upper_bound(s1, s2) == 2.0

    def test_matching_respects_capacity(self):
        s1 = [frozenset("A"), frozenset("A")]
        s2 = [frozenset("A")]
        assert set_similarity_upper_bound(s1, s2) == 1.0


def expanded(counts):
    """A ``(mask, count)`` multiset as the list of label sets it stands
    for — the input of :func:`set_similarity_upper_bound`."""
    return [frozenset(mask_ids(m)) for m, count in counts
            for _ in range(count)]


def multisets(max_mask):
    """Distinct label masks with their counts; bit 0 is the wildcard and
    bit 1 is ε, ordinary bits to the matching."""
    return st.dictionaries(st.integers(1, max_mask), st.integers(1, 4),
                           max_size=7).map(lambda d: list(d.items()))


class TestClassFlow:
    """Eqn. (7) on compiled sides: a flow between classes of equal masks
    is the matching between the elements they stand for."""

    @given(multisets(63), multisets(63))
    @settings(max_examples=400, deadline=None)
    def test_equals_matching_on_expanded_lists(self, counts1, counts2):
        want = set_similarity_upper_bound(expanded(counts1),
                                          expanded(counts2))
        assert _matching_value(counts1, counts2) == want
        assert _matching_value(counts2, counts1) == want

    def test_rerouting_is_needed_and_done(self):
        # Greedy sends both A's into {A,B}; the B's then need one back.
        counts1 = [(0b0100, 2), (0b1000, 2)]
        counts2 = [(0b1100, 2), (0b0100, 2)]
        assert _matching_value(counts1, counts2) == 4
        assert _matching_value(counts2, counts1) == 4

    @given(st.dictionaries(st.integers(0, 5), st.integers(1, 4), max_size=5),
           st.dictionaries(st.integers(2, 7), st.integers(1, 5), max_size=6),
           st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_plain_query_against_histogram(self, labels, hist, wildcards):
        """A query of plain labels walks the histogram; that is the
        general path's value, with and without wildcard elements (id 0:
        in no histogram, each taken as matched)."""
        if not wildcards:
            labels.pop(0, None)
        counts = [(1 << i, count) for i, count in labels.items()]
        fast, general = _QuerySide(counts), _QuerySide(counts)
        assert fast.plain is not None
        general.plain = None
        want = set_similarity_upper_bound(
            expanded(counts), expanded((1 << i, c) for i, c in hist.items())
        ) + labels.get(0, 0)
        assert fast.matched_histogram(hist) == want
        assert general.matched_histogram(hist) == want

    @given(multisets(63),
           st.dictionaries(st.integers(2, 5), st.integers(1, 5), max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_label_set_query_against_histogram(self, counts, hist):
        side = _QuerySide(counts)
        wild = sum(count for m, count in counts if m & 1)
        assert side.matched_histogram(hist) == wild + \
            set_similarity_upper_bound(
                expanded(counts),
                expanded((1 << i, c) for i, c in hist.items()))

    def test_summary_and_graph_agree_without_wildcards(self):
        rng = random.Random(11)
        for _ in range(20):
            q = random_labeled_graph(rng, rng.randrange(1, 9))
            g = random_labeled_graph(rng, rng.randrange(1, 9))
            sqc = SimilarityQueryContext(q)
            assert sqc.sim_upper_bound(label_context(g)) == \
                sqc.sim_upper_bound(g) == sim_upper_bound(g, q)
            assert sqc.distance_lower_bound(label_context(g)) == \
                sqc.distance_lower_bound(g)

    def test_wildcard_query_against_summary_is_sound(self):
        q = Graph([WILDCARD, "A", WILDCARD], [(0, 1), (1, 2)])
        g = Graph(["A", "B", "C"], [(0, 1), (1, 2)])
        sqc = SimilarityQueryContext(q)
        # Both wildcards count as matched beside the one A; 2 edges.
        assert sqc.sim_upper_bound(label_context(g)) == 5.0
        assert sqc.sim_upper_bound(label_context(g)) >= sqc.sim_upper_bound(g)


class TestSimUpperBound:
    def test_identical_graphs_reach_norm(self):
        g = triangle()
        assert sim_upper_bound(g, g) == norm(g) == 6.0

    def test_dominates_optimal_similarity_small(self):
        rng = random.Random(3)
        for _ in range(10):
            g1 = random_labeled_graph(rng, rng.randrange(2, 6))
            g2 = random_labeled_graph(rng, rng.randrange(2, 6))
            assert sim_upper_bound(g1, g2) >= optimal_similarity(g1, g2) - 1e-9

    def test_dominates_nbm_similarity(self):
        rng = random.Random(4)
        for _ in range(10):
            g1 = random_labeled_graph(rng, rng.randrange(2, 10))
            g2 = random_labeled_graph(rng, rng.randrange(2, 10))
            assert sim_upper_bound(g1, g2) >= nbm_mapping(g1, g2).similarity() - 1e-9

    def test_closure_bound_dominates_members(self):
        g1 = path_graph(["A", "B", "C"])
        g2 = path_graph(["A", "B", "D"])
        c = closure_under_mapping(g1, g2, [(i, i) for i in range(3)])
        q = path_graph(["A", "B"])
        assert sim_upper_bound(q, c) >= sim_upper_bound(q, g1) - 1e-9
        assert sim_upper_bound(q, c) >= sim_upper_bound(q, g2) - 1e-9


class TestNorm:
    def test_norm_counts_vertices_and_edges(self):
        assert norm(triangle()) == 6.0
        assert norm(Graph()) == 0.0
        assert norm(GraphClosure([{"A"}])) == 1.0


class TestDistanceLowerBound:
    def test_identical_graphs_zero(self):
        assert distance_lower_bound(triangle(), triangle()) == 0.0

    def test_bounded_by_optimal_distance(self):
        rng = random.Random(5)
        for _ in range(12):
            g1 = random_labeled_graph(rng, rng.randrange(1, 6))
            g2 = random_labeled_graph(rng, rng.randrange(1, 6))
            assert distance_lower_bound(g1, g2) <= optimal_distance(g1, g2) + 1e-9

    def test_disjoint_labels(self):
        g1 = Graph(["A", "A"], [(0, 1)])
        g2 = Graph(["B", "B"], [(0, 1)])
        # Vertices can't match (2) but the edges can (labels both None).
        assert distance_lower_bound(g1, g2) == 2.0
