"""Tests for the label interner and compiled target contexts.

Covers the tentpole's substrate: interning is append-only with the
wildcard/ε bits reserved, ``masks_match`` is exactly ``labels_match``,
contexts are memoized per object and invalidated by every mutator, and
pickling never smuggles process-local masks across process boundaries.
"""

from __future__ import annotations

import pickle
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.closure import (
    EPSILON,
    WILDCARD,
    GraphClosure,
)
from repro.graphs.labelspace import (
    EPSILON_BIT,
    WILDCARD_BIT,
    LabelSpace,
    global_labelspace,
    label_context,
    masks_match,
    target_context,
)
from repro.matching.kernels import compile_query
from repro.matching.nbm import nbm_mapping
from oracles.graphs import labels_match
from oracles.histogram import LabelHistogram

from conftest import random_labeled_graph, triangle


class TestLabelSpace:
    def test_reserved_ids(self):
        space = LabelSpace()
        assert space.vertex_id(WILDCARD) == 0
        assert space.vertex_id(EPSILON) == 1
        assert space.edge_id(WILDCARD) == 0
        assert space.edge_id(EPSILON) == 1
        assert space.vertex_bit(WILDCARD) == WILDCARD_BIT
        assert space.vertex_bit(EPSILON) == EPSILON_BIT

    def test_interning_is_stable_and_append_only(self):
        space = LabelSpace()
        a = space.vertex_id("A")
        b = space.vertex_id("B")
        assert a != b
        assert space.vertex_id("A") == a  # stable on re-intern
        before = space.snapshot()["vertex_labels"]
        space.vertex_id("A")
        assert space.snapshot()["vertex_labels"] == before  # no growth on hits

    def test_vertex_and_edge_namespaces_are_independent(self):
        space = LabelSpace()
        assert space.vertex_id("x") == space.edge_id("x")  # both next free id
        space.vertex_id("y")
        # Interning on the vertex side did not advance the edge side.
        assert space.snapshot()["vertex_labels"] == 4
        assert space.snapshot()["edge_labels"] == 3

    def test_mask_of_label_set(self):
        space = LabelSpace()
        m = space.vertex_mask({"A", "B"})
        assert m == space.vertex_bit("A") | space.vertex_bit("B")
        assert space.snapshot()["vertex_labels"] == 4  # wildcard, ε, A, B

    def test_vertex_keys_are_interned_with_their_profiles(self):
        """A database vertex is its label mask then its neighbours' sorted
        label ids; equal ones are one small int, equal neighbourhoods one
        profile object, and both tables are in the snapshot."""
        from repro.obs.metrics import MetricsRegistry

        space = LabelSpace()
        a, b = space.vertex_bit("A"), space.vertex_bit("B")
        k0 = space.vertex_key((a, 2, 2, 3))
        k1 = space.vertex_key((b, 2, 2, 3))
        k2 = space.vertex_key((a,))
        assert (k0, k1, k2) == (0, 1, 2)
        assert space.vertex_key((a, 2, 2, 3)) == k0
        (m0, p0, d0), (m1, p1, d1) = space.vertex_keys[k0], space.vertex_keys[k1]
        assert (m0, d0, m1, d1) == (a, 3, b, 3)
        assert p0 is p1 and p0.bit_count() == 3
        assert space.vertex_keys[k2] == (a, 0, 0)
        assert (p0 & space.profile([2, 3, 3])).bit_count() == 2
        assert space.snapshot() == {"vertex_labels": 4, "edge_labels": 2,
                                    "profiles": 2, "vertex_keys": 3}
        registry = MetricsRegistry()
        space.publish(registry)
        assert registry.snapshot()["labelspace.vertex_keys"]["value"] == 3
        assert registry.snapshot()["labelspace.profiles"]["value"] == 2


class TestProfiles:
    """A profile is a multiset of label ids as a mask: the order the ids
    come in is irrelevant, and two profiles overlap in popcount(AND) by
    exactly their multisets' intersection."""

    @given(st.lists(st.lists(st.integers(0, 6), max_size=12), min_size=2,
                    max_size=6),
           st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_order_free_and_overlap_is_multiset_intersection(self, bags, rnd):
        space = LabelSpace()
        profiles = [space.profile(bag) for bag in bags]
        for bag, p in zip(bags, profiles):
            shuffled = bag[:]
            rnd.shuffle(shuffled)
            assert space.profile(iter(shuffled)) == p
            assert p.bit_count() == len(bag)
        for a, p in zip(bags, profiles):
            for b, q in zip(bags, profiles):
                common = Counter(a) & Counter(b)
                assert (p & q).bit_count() == sum(common.values())

    def test_equal_multisets_equal_profiles_across_first_use_order(self):
        space = LabelSpace()
        p = space.profile([5, 5, 2])
        assert space.profile([2, 5, 5]) == p
        assert space.profile([2, 2]) & p == space.profile([2])
        assert space.profile([]) == 0


class TestMasksMatch:
    def test_matches_labels_match_exhaustively(self):
        """masks_match == labels_match over every pair of small label sets
        drawn from {A, B, C, ε, *}."""
        space = global_labelspace()
        universe = ["A", "B", "C", EPSILON, WILDCARD]
        rng = random.Random(7)
        sets = [frozenset(rng.sample(universe, rng.randint(1, 3)))
                for _ in range(60)]
        for s1 in sets:
            for s2 in sets:
                m1, m2 = space.vertex_mask(s1), space.vertex_mask(s2)
                assert masks_match(m1, m2) == labels_match(s1, s2), (s1, s2)

    def test_wildcard_matches_everything(self):
        assert masks_match(WILDCARD_BIT, 1 << 9)
        assert masks_match(1 << 9, WILDCARD_BIT)
        assert masks_match(WILDCARD_BIT, WILDCARD_BIT)

    def test_epsilon_is_an_ordinary_value(self):
        # ε matches ε (two closures can both relax to the dummy) but does
        # not match a disjoint real label — exactly labels_match semantics.
        assert masks_match(EPSILON_BIT, EPSILON_BIT)
        assert not masks_match(EPSILON_BIT, 1 << 5)
        assert labels_match(frozenset([EPSILON]), frozenset([EPSILON]))
        assert not labels_match(frozenset([EPSILON]), frozenset(["Q"]))


class TestContextCaching:
    def test_context_is_memoized(self):
        g = triangle()
        assert target_context(g) is target_context(g)

    def test_mutators_invalidate(self):
        g = triangle()
        ctx = target_context(g)

        g.add_vertex("D")
        ctx2 = target_context(g)
        assert ctx2 is not ctx
        assert ctx2.n == 4

        g.add_edge(0, 3)
        ctx3 = target_context(g)
        assert ctx3 is not ctx2
        assert ctx3.degrees[0] == 3

    def test_closure_mutators_invalidate(self):
        c = GraphClosure([{"A"}, {"B"}])
        c.add_edge(0, 1, {"x"})
        ctx = target_context(c)
        c.add_vertex({"C", EPSILON})
        ctx2 = target_context(c)
        assert ctx2 is not ctx and ctx2.n == 3
        c.add_edge(1, 2, {"y", EPSILON})
        assert target_context(c) is not ctx2

    def test_copy_does_not_share_cache(self):
        g = triangle()
        ctx = target_context(g)
        h = g.copy()
        assert target_context(h) is not ctx  # fresh object, fresh context
        assert target_context(g) is ctx  # original cache untouched

    def test_pickle_drops_cache(self):
        g = triangle()
        target_context(g)
        h = pickle.loads(pickle.dumps(g))
        assert h == g
        assert h._kernel_ctx is None
        # And the unpickled graph compiles fine on its own.
        assert target_context(h).n == 3

        c = GraphClosure([{"A", EPSILON}])
        target_context(c)
        c2 = pickle.loads(pickle.dumps(c))
        assert c2._kernel_ctx is None
        assert target_context(c2).n == 1


class TestContextContents:
    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            target_context(object())

    def test_graph_context_matches_graph(self):
        rng = random.Random(3)
        g = random_labeled_graph(rng, 9)
        ctx = target_context(g)
        qc = compile_query(g)
        vertex_masks, neighbors, edge_masks = \
            qc.vertex_masks, qc.neighbors, qc.edge_masks
        space = global_labelspace()
        assert ctx.n == g.num_vertices
        for v in g.vertices():
            assert vertex_masks[v] == space.vertex_bit(g.label(v))
            assert neighbors[v] == tuple(g.neighbors(v))
            assert ctx.degrees[v] == len(neighbors[v])
            members = 0
            for mask, rows in ctx.edge_rows.items():
                group = rows[v]
                assert members & group == 0  # disjoint
                members |= group
                for w in g.neighbors(v):
                    if group >> w & 1:
                        assert edge_masks[v][w] == mask == \
                            space.edge_bit(g.edge_label(v, w))
            assert members == sum(1 << w for w in neighbors[v])

    def test_degree_masks_are_built_once_per_context(self):
        g = random_labeled_graph(random.Random(5), 9)
        ctx = target_context(g)
        for d in range(6):
            assert ctx.at_least(d) == sum(
                1 << v for v in g.vertices() if g.degree(v) >= d)
        assert sorted(ctx._at_least) == list(range(6))

    def test_vertex_groups_partition_vertices(self):
        rng = random.Random(4)
        g = random_labeled_graph(rng, 8, num_labels=2)
        ctx = target_context(g)
        vertex_masks = compile_query(g).vertex_masks
        union = 0
        for mask, members in ctx.vertex_groups:
            assert union & members == 0  # disjoint
            union |= members
            m = members
            while m:
                b = m & -m
                m ^= b
                assert vertex_masks[b.bit_length() - 1] == mask
        assert union == (1 << g.num_vertices) - 1

    def _hist_as_counts(self, ctx, space):
        vitems, eitems = ctx.vhist.items(), ctx.ehist.items()
        inv_v = {i: lab for lab, i in space._vertex_ids.items()}
        inv_e = {i: lab for lab, i in space._edge_ids.items()}
        counts = {}
        for i, c in vitems:
            counts[(0, inv_v[i])] = c
        for i, c in eitems:
            counts[(1, inv_e[i])] = c
        return counts

    def test_histograms_equal_label_histogram(self):
        """The summary counts what the set-form histogram counts, and its
        ``dominates`` / ``attains`` agree with the oracle's on every pair
        of graphs, subgraphs and closures."""
        rng = random.Random(5)
        space = global_labelspace()
        graphs = [random_labeled_graph(rng, 7) for _ in range(10)]
        for g in graphs:
            assert (self._hist_as_counts(target_context(g), space)
                    == dict(LabelHistogram.of(g)._counts))
        c = GraphClosure([{"A", "B"}, {"B", EPSILON}, {WILDCARD}])
        c.add_edge(0, 1, {"x", EPSILON})
        c.add_edge(1, 2, {"y"})
        assert (self._hist_as_counts(target_context(c), space)
                == dict(LabelHistogram.of(c)._counts))
        targets = graphs + [g.subgraph(range(3)) for g in graphs] + [c] + [
            nbm_mapping(g1, g2).closure() for g1, g2 in zip(graphs, graphs[1:])]
        seen = set()
        for a in targets:
            for b in targets:
                want = (LabelHistogram.of(a).dominates(LabelHistogram.of(b)),
                        LabelHistogram.of(b).attains(LabelHistogram.of(a)))
                assert (label_context(a).dominates(label_context(b)),
                        label_context(b).attains(label_context(a))) == want
                seen.update(enumerate(want))
        assert len(seen) == 4  # each predicate both ways
