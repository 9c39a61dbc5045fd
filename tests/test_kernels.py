"""Differential tests: bitset kernels vs the set-based reference.

The kernels of :mod:`repro.matching.kernels` must be **bit-identical** to
the set-based pseudo-isomorphism reference — same level-0 domains, same
refined domains (including the early-exit point), same semi-perfect
verdicts, same histogram-dominance answers, and therefore the same
candidate sets and answers out of every index query.  These tests fuzz that
equivalence over random graphs and closures (with ε, wildcards, and edge
labels), calling the references directly, and pin the end-to-end paths
(in-memory tree, disk tree) against a reference scan.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import drawn_closure, reference_scan, stored_graphs

from repro.exceptions import ConfigError
from repro.graphs.closure import (
    WILDCARD,
    GraphClosure,
    closure_under_mapping,
)
from repro.graphs.graph import Graph
from repro.graphs.labelspace import (
    LabelSummary,
    global_labelspace,
    target_context,
)
from repro.matching import kernels
from repro.matching.bounds import (
    SimilarityQueryContext,
    distance_lower_bound,
    sim_upper_bound,
)
from repro.matching.kernels import (
    compile_query,
    domains_to_masks,
    global_semi_perfect_masks,
    histogram_dominates,
    level0_domain_masks,
    masks_to_domains,
    pseudo_domain_masks,
    resolve_level,
    semi_perfect_masks,
)
from repro.obs.metrics import global_registry
from repro.matching.pseudo_iso import (
    pseudo_compatibility_domains,
    pseudo_subgraph_isomorphic,
)
from oracles.bipartite import has_semi_perfect_matching
from oracles.bounds import (
    edge_label_sets,
    set_similarity_upper_bound,
    vertex_label_sets,
)
from oracles.histogram import LabelHistogram
from oracles.graphs import labels_match
from oracles.pseudo_iso import (
    global_semi_perfect,
    level0_domains,
    reference_domains,
    refine_bipartite,
)

VLABELS = ["A", "B", "C", WILDCARD]
ELABELS = [None, "x", "y"]

_REFINE_ROUNDS = global_registry().counter("matching.pseudo_iso.refine_rounds")
_LOCAL_TESTS = global_registry().counter("matching.pseudo_iso.local_tests")


def random_graph(rng: random.Random, max_vertices: int = 8) -> Graph:
    """A random graph with vertex labels (occasionally wildcard) and edge
    labels (occasionally non-default) — the full label surface."""
    n = rng.randint(1, max_vertices)
    g = Graph([rng.choice(VLABELS) for _ in range(n)])
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.35:
                g.add_edge(u, v, rng.choice(ELABELS))
    return g


def random_graph_like(rng: random.Random, max_vertices: int = 8):
    """A Graph or (via a random mapping of two graphs) a GraphClosure —
    closures exercise multi-label sets and ε on both vertices and edges."""
    g1 = random_graph(rng, max_vertices)
    if rng.random() < 0.5:
        return g1
    g2 = random_graph(rng, max_vertices)
    n1, n2 = g1.num_vertices, g2.num_vertices
    k = rng.randint(0, min(n1, n2))
    us = rng.sample(range(n1), k)
    vs = rng.sample(range(n2), k)
    # Extended mapping: every vertex of both graphs appears exactly once,
    # unmatched ones paired with the dummy (None).
    pairs = list(zip(us, vs))
    pairs += [(u, None) for u in range(n1) if u not in set(us)]
    pairs += [(None, v) for v in range(n2) if v not in set(vs)]
    return closure_under_mapping(g1, g2, pairs)


class TestKernelEquivalence:
    """Seeded differential fuzz over all kernel layers."""

    @pytest.mark.parametrize("seed", range(8))
    def test_domains_and_verdicts_match(self, seed):
        rng = random.Random(seed)
        for trial in range(60):
            query = random_graph(rng, 6)
            target = random_graph_like(rng, 8)
            level = rng.choice([0, 1, 2, "max"])
            qc, tc = compile_query(query), target_context(target)

            ref0 = level0_domains(query, target)
            assert masks_to_domains(level0_domain_masks(qc, tc)) == ref0

            ref = reference_domains(query, target, level)
            masks = pseudo_domain_masks(qc, tc, level)
            assert masks_to_domains(masks) == ref, (seed, trial, level)
            assert pseudo_compatibility_domains(query, target, level) == ref

            ref_verdict = global_semi_perfect(ref, target.num_vertices)
            assert global_semi_perfect_masks(masks) == ref_verdict
            assert pseudo_subgraph_isomorphic(
                query, target, level) == ref_verdict

    @pytest.mark.parametrize("seed", range(4))
    def test_closure_vs_closure(self, seed):
        rng = random.Random(1000 + seed)
        for _ in range(25):
            query = random_graph_like(rng, 6)
            target = random_graph_like(rng, 8)
            level = rng.choice([1, "max"])
            masks = pseudo_domain_masks(
                compile_query(query), target_context(target), level)
            assert masks_to_domains(masks) == reference_domains(
                query, target, level)

    @pytest.mark.parametrize("seed", range(4))
    def test_histogram_dominance_matches(self, seed):
        rng = random.Random(2000 + seed)
        for _ in range(40):
            query = random_graph(rng, 6)
            target = random_graph_like(rng, 8)
            ref = LabelHistogram.of(target).dominates(LabelHistogram.of(query))
            got = histogram_dominates(target_context(target),
                                      compile_query(query))
            assert got == ref

    def test_early_exit_leaves_identical_domains(self):
        # A query whose refinement provably empties a domain mid-round:
        # both engines must stop at the same point with the same contents.
        query = Graph(["A", "A", "B"], [(0, 1), (1, 2)])
        target = Graph(["A", "A", "B", "C"], [(0, 1), (2, 3)])
        ref = reference_domains(query, target, "max")
        masks = pseudo_domain_masks(
            compile_query(query), target_context(target), "max")
        assert masks_to_domains(masks) == ref
        assert any(not d for d in ref)  # the exit actually triggered


def set_based_bounds(g1, g2):
    """Eqn. (7) and the distance bound from the label-set lists — what
    the histogram / mask paths of ``bounds`` must equal."""
    v1, v2 = vertex_label_sets(g1), vertex_label_sets(g2)
    e1, e2 = edge_label_sets(g1), edge_label_sets(g2)
    v = set_similarity_upper_bound(v1, v2)
    e = set_similarity_upper_bound(e1, e2)
    return v + e, float(max(len(v1), len(v2)) - v + max(len(e1), len(e2)) - e)


def bare_summary(g):
    """What a disk leaf entry knows of its graph: the two histograms."""
    ctx = target_context(g)
    return LabelSummary(dict(ctx.vhist), dict(ctx.ehist))


class TestBoundsEquivalence:
    """Histogram / mask bounds vs the set-based ones, same pairs."""

    @pytest.mark.parametrize("seed", range(6))
    def test_graphs_and_closures(self, seed):
        rng = random.Random(3000 + seed)
        for _ in range(60):
            a, b = random_graph_like(rng, 7), random_graph_like(rng, 7)
            sim, dist = set_based_bounds(a, b)
            sqc = SimilarityQueryContext(a)
            assert sim_upper_bound(a, b) == sqc.sim_upper_bound(b) == sim
            assert distance_lower_bound(a, b) == dist
            assert sqc.distance_lower_bound(b) == dist

    @pytest.mark.parametrize("seed", range(4))
    def test_leaf_summaries(self, seed):
        rng = random.Random(4000 + seed)
        exact = 0
        for _ in range(80):
            q, g = random_graph(rng, 7), random_graph(rng, 7)
            sim, dist = set_based_bounds(q, g)
            sqc = SimilarityQueryContext(q)
            got_sim = sqc.sim_upper_bound(bare_summary(g))
            got_dist = sqc.distance_lower_bound(bare_summary(g))
            # Wildcards are outside a histogram: still sound, and exact
            # as soon as one side has none.
            assert got_sim >= sim and got_dist <= dist
            if WILDCARD not in [q.label(v) for v in q.vertices()] \
                    + [g.label(v) for v in g.vertices()]:
                assert (got_sim, got_dist) == (sim, dist)
                exact += 1
        assert exact > 5

    def test_closure_distance_bound(self):
        rng = random.Random(5000)
        for _ in range(60):
            q, c = random_graph(rng, 6), random_graph_like(rng, 7)
            if isinstance(c, Graph):
                continue
            v = set_similarity_upper_bound(vertex_label_sets(q),
                                           vertex_label_sets(c))
            e = set_similarity_upper_bound(edge_label_sets(q),
                                           edge_label_sets(c))
            expected = (
                max(0.0, max(q.num_vertices, c.min_num_vertices()) - v)
                + max(0.0, max(q.num_edges, c.min_num_edges()) - e))
            got = SimilarityQueryContext(q).closure_distance_lower_bound(c)
            assert got == expected and isinstance(got, float)

    def test_stored_summary_is_the_memory_summary(self, tmp_path):
        from repro.ctree.bulkload import bulk_load
        from repro.ctree.diskindex import DiskCTree
        from repro.datasets.chemical import generate_chemical_database

        db = generate_chemical_database(25, seed=4)
        tree = bulk_load(db, min_fanout=3)
        with DiskCTree.create(tree, tmp_path / "s.ctp") as disk:
            stack, seen = [disk.store.load_node(disk.store.root)], 0
            while stack:
                node = stack.pop()
                for ref in node.children:
                    if not node.is_leaf:
                        stack.append(disk.store.load_node(ref))
                        continue
                    stored = disk.store.graph_summary(ref)
                    memo = target_context(db[ref.graph_id])
                    assert stored.vhist == memo.vhist
                    assert stored.ehist == memo.ehist
                    seen += 1
            assert seen == len(db)


class TestSemiPerfectMasks:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_hopcroft_karp(self, seed):
        rng = random.Random(seed)
        for _ in range(80):
            n_left = rng.randint(0, 6)
            n_right = rng.randint(0, 7)
            rows = [
                [v for v in range(n_right) if rng.random() < 0.4]
                for _ in range(n_left)
            ]
            ref = has_semi_perfect_matching(n_left, n_right, rows)
            masks = domains_to_masks([set(r) for r in rows])
            assert global_semi_perfect_masks(masks) == ref

    def test_empty_left_side_is_saturated(self):
        assert semi_perfect_masks([]) is True
        assert global_semi_perfect_masks([]) is True
        assert has_semi_perfect_matching(0, 3, [])

    def test_augmenting_path_needed(self):
        # Greedy assigns row0->bit0; row1 forces an augmenting path.
        assert semi_perfect_masks([0b01, 0b01]) is False
        assert semi_perfect_masks([0b11, 0b01]) is True


@st.composite
def labeled_graphs(draw, max_vertices=6, edge_labels=ELABELS):
    n = draw(st.integers(1, max_vertices))
    g = Graph([draw(st.sampled_from(VLABELS)) for _ in range(n)])
    for u in range(n):
        for v in range(u + 1, n):
            if draw(st.booleans()):
                g.add_edge(u, v, draw(st.sampled_from(edge_labels)))
    return g


class TestKernelProperties:
    @given(labeled_graphs(), labeled_graphs(max_vertices=8),
           st.sampled_from([0, 1, 2, "max"]))
    @settings(max_examples=60, deadline=None)
    def test_domains_bit_identical(self, query, target, level):
        masks = pseudo_domain_masks(
            compile_query(query), target_context(target), level)
        assert masks_to_domains(masks) == reference_domains(
            query, target, level)

    @given(labeled_graphs(), labeled_graphs(max_vertices=8))
    @settings(max_examples=60, deadline=None)
    def test_refine_fixpoint_bit_identical(self, query, target):
        ref = level0_domains(query, target)
        if any(not d for d in ref):
            return  # reference never refines an already-failed seeding
        ref = refine_bipartite(query, target, ref, "max")
        qc = compile_query(query)
        masks = kernels.refine_bipartite_masks(
            qc, target_context(target),
            level0_domain_masks(qc, target_context(target)), "max")
        assert masks_to_domains(masks) == ref

    @given(labeled_graphs(), labeled_graphs(max_vertices=8))
    @settings(max_examples=40, deadline=None)
    def test_similarity_context_bit_identical(self, g1, g2):
        sqc = SimilarityQueryContext(g1)
        assert sqc.sim_upper_bound(g2) == sim_upper_bound(g1, g2)
        assert sqc.distance_lower_bound(g2) == distance_lower_bound(g1, g2)


def refine_both(query, target, level):
    """``RefineBipartite`` from the level-0 seeds by the set-based
    reference and by the kernel: ``(domains, rounds run)`` of each."""
    out = []
    for kernel in (False, True):
        before = _REFINE_ROUNDS.value
        if kernel:
            qc, tc = compile_query(query), target_context(target)
            domains = masks_to_domains(kernels.refine_bipartite_masks(
                qc, tc, level0_domain_masks(qc, tc), level))
        else:
            domains = refine_bipartite(
                query, target, level0_domains(query, target), level)
        out.append((domains, _REFINE_ROUNDS.value - before))
    return out


@st.composite
def star_queries(draw, degree):
    """A centre of exactly ``degree`` neighbours (the local test's one-row,
    two-row and matching branches), leaves of degree 1 to 3: drawn labels,
    drawn edge labels, sometimes an edge between two leaves or a tail."""
    g = Graph([draw(st.sampled_from(VLABELS)) for _ in range(degree + 2)])
    for leaf in range(1, degree + 1):
        g.add_edge(0, leaf, draw(st.sampled_from(ELABELS)))
    if degree > 1 and draw(st.booleans()):
        g.add_edge(1, 2, draw(st.sampled_from(ELABELS)))
    if draw(st.booleans()):
        g.add_edge(degree, degree + 1, draw(st.sampled_from(ELABELS)))
    return g


@st.composite
def dense_targets(draw, max_vertices=8):
    """Graphs and closures dense enough that refinement has work to do."""
    def graph():
        n = draw(st.integers(1, max_vertices))
        g = Graph([draw(st.sampled_from(VLABELS[:3])) for _ in range(n)])
        for u in range(n):
            for v in range(u + 1, n):
                if draw(st.integers(0, 2)):
                    g.add_edge(u, v, draw(st.sampled_from(ELABELS)))
        return g

    g1 = graph()
    if draw(st.booleans()):
        return g1
    return drawn_closure(draw, g1, graph())


def forced_targets(graph):
    """``graph`` as a graph, as the closure of itself (singleton label sets)
    and as its closure with a copy grown by one pendant vertex (an ε vertex
    and an ε edge, inert for every query) — the same local tests on each."""
    grown = graph.copy()
    grown.add_edge(graph.num_vertices - 1, grown.add_vertex("C"), "y")
    same = [(v, v) for v in range(graph.num_vertices)]
    return [graph, closure_under_mapping(graph, graph, same),
            closure_under_mapping(graph, grown,
                                  same + [(None, graph.num_vertices)])]


#: One forced case per branch of ``kernels._local_test``: (query, target,
#: the centre's level-1 domain, candidate bits decided one at a time at
#: level 1).  Vertex 0 of every query is the centre under test.
FORCED = {
    # both neighbours bring the same constraint: ``cand & two``
    "degree 2, one constraint twice": (
        Graph(["B", "A", "A"], [(0, 1, "x"), (0, 2, "x")]),
        Graph(["B", "A", WILDCARD, "B", "A", "B", "A", "A"],
              [(0, 1, "x"), (0, 2, "x"), (3, 4, "x"),
               (5, 6, "x"), (5, 7, "y")]),
        {0}, 0),
    # two constraints, one neighbour each: dropped where it is the same one
    "degree 2, two constraints on one bit": (
        Graph(["B", "A", "C"], [(0, 1, "x"), (0, 2, "x")]),
        Graph(["B", WILDCARD, "B", WILDCARD, WILDCARD, "B", "A", "C", "B",
               "A", "C"],
              [(0, 1, "x"), (2, 3, "x"), (2, 4, "x"), (5, 6, "x"),
               (5, 7, "x"), (8, 9, "x"), (8, 10, "y")]),
        {2, 5}, 2),
    # sizes (1, 3, 3): greedy saturates, no matching run
    "degree 3, accepted by the masks": (
        Graph(["B", "A", "A", "C"], [(0, 1, "x"), (0, 2, "x"), (0, 3, "y")]),
        Graph(["B", "A", "A", WILDCARD, "C", "B", "A", "A", "A"],
              [(0, 1, "x"), (0, 2, "x"), (0, 3, "x"), (0, 4, "y"),
               (5, 6, "x"), (5, 7, "x"), (5, 8, "x")]),
        {0}, 0),
    # sizes (1, 2, 2) over three neighbours match; over two (the wildcard is
    # both an A and the C), as (1, 1, 2) or as (1, 1, 3) they do not: Kuhn
    # decides all four
    "degree 3, left to Kuhn": (
        Graph(["B", "A", "A", "C"], [(0, 1, "x"), (0, 2, "x"), (0, 3, "x")]),
        Graph(["B", "A", "A", "C", "B", "A", WILDCARD, "C", "B", "A", "C",
               "C", "B", "A", "C", "C", "C"],
              [(0, 1, "x"), (0, 2, "x"), (0, 3, "x"),
               (4, 5, "x"), (4, 6, "x"), (4, 7, "y"),
               (8, 9, "x"), (8, 10, "x"), (8, 11, "x"),
               (12, 13, "x"), (12, 14, "x"), (12, 15, "x"), (12, 16, "x")]),
        {0}, 4),
    "degree 4, left to Kuhn": (
        Graph(["B", "A", "A", "C", "C"],
              [(0, 1, "x"), (0, 2, "x"), (0, 3, "y"), (0, 4, "y")]),
        Graph(["B", "A", "A", "C", WILDCARD, "B", "A", "C", "C", "C", "B",
               "A", "A", "C"],
              [(0, 1, "x"), (0, 2, "x"), (0, 3, "y"), (0, 4, "y"),
               (5, 6, "x"), (5, 7, "y"), (5, 8, "y"), (5, 9, "y"),
               (10, 11, "x"), (10, 12, "x"), (10, 13, "y")]),
        {0}, 2),  # vertex 10 falls to the degree mask, not to a matching
    "degree 5, left to Kuhn": (
        Graph(["B", "A", "A", "C", "C", WILDCARD],
              [(0, 1, "x"), (0, 2, "x"), (0, 3, "y"), (0, 4, "y"), (0, 5)]),
        Graph(["B", "A", "A", "C", "C", "A", "B", "A", "C", "C", "C", "A"],
              [(0, 1, "x"), (0, 2, "x"), (0, 3, "y"), (0, 4, "y"), (0, 5),
               (6, 7, "x"), (6, 8, "y"), (6, 9, "y"), (6, 10, "y"),
               (6, 11)]),
        {0}, 2),
    # the two B vertices of the ring are one class: decided once, not twice
    "two alike vertices, one decision": (
        Graph(["B", "A", "B", "C"],
              [(0, 1, "x"), (1, 2, "x"), (2, 3, "x"), (3, 0, "x")]),
        Graph(["B", WILDCARD, "B", "A", "C", "B"],
              [(0, 1, "x"), (2, 3, "x"), (2, 4, "x"), (3, 5, "x"),
               (4, 5, "x")]),
        {2, 5}, 3),  # bits 0, 2 and 5 of the class; the A and C: none
}


class TestRefineKernel:
    """The refine kernel's local-test branches against
    ``pseudo_iso.refine_bipartite``: same domains, same early return, same
    ``refine_rounds``."""

    @pytest.mark.parametrize("case", FORCED)
    def test_forced_branch(self, case):
        query, graph, centre, decided = FORCED[case]
        for target in forced_targets(graph):
            for level in (1, 2, "max"):
                before = _LOCAL_TESTS.value
                (ref, ref_rounds), (got, got_rounds) = refine_both(
                    query, target, level)
                assert got == ref, (target, level)
                assert got_rounds == ref_rounds
                if level == 1:
                    assert got[0] == centre
                    assert _LOCAL_TESTS.value - before == decided

    @given(star_queries(2), dense_targets())
    @settings(max_examples=60, deadline=None)
    def test_neighbour_rows_are_symmetric(self, query, target):
        # what lets one pass over a domain's bits stand for a test per bit
        tc = target_context(target)
        kernels.neighbor_rows(compile_query(query), tc)
        assert tc.nbr_rows
        for rows in tc.nbr_rows.values():
            for v, row in enumerate(rows):
                assert not row >> v & 1
                for w in range(tc.n):
                    assert row >> w & 1 == rows[w] >> v & 1

    @pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("level", [1, 2, "max"])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_forced_degree_bit_identical(self, degree, level, data):
        query = data.draw(star_queries(degree))
        target = data.draw(dense_targets())
        assert query.degree(0) == degree
        if any(not d for d in level0_domains(query, target)):
            return  # neither engine refines an already-failed seeding
        (ref, ref_rounds), (got, got_rounds) = refine_both(
            query, target, level)
        assert got == ref
        assert got_rounds == ref_rounds

    def test_hall_shortcut_cases(self):
        # Two query neighbours that can only share one target vertex: the
        # two-row test must fail where each row alone is non-empty.
        query = Graph(["B", "A", "A"], [(0, 1), (0, 2)])
        one_a = Graph(["B", "A", "C"], [(0, 1), (0, 2)])
        two_a = Graph(["B", "A", "A"], [(0, 1), (0, 2)])
        for target, centre in ((one_a, set()), (two_a, {0})):
            (ref, _), (got, _) = refine_both(query, target, 1)
            assert got == ref and got[0] == centre
        # One row: a leaf needs one compatible neighbour over a
        # compatible *edge*.
        leaf = Graph(["A", "B"], [(0, 1, "x")])
        for label, survivors in (("x", {0}), ("y", set())):
            target = Graph(["A", "B"], [(0, 1, label)])
            (ref, _), (got, _) = refine_both(leaf, target, 1)
            assert got == ref and got[0] == survivors

    @pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
    def test_emptied_domain_returns_at_the_same_point(self, degree):
        # The centre's only candidate has too few matching neighbours:
        # both engines stop mid-round, leaving later domains unrefined.
        query = Graph(["X"] + ["A"] * degree + ["A", "Z"],
                      [(0, leaf) for leaf in range(1, degree + 1)]
                      + [(degree + 1, degree + 2)])
        target = Graph(["X"] + ["A"] * degree + ["A", "Z"],
                       [(0, leaf) for leaf in range(1, degree)]
                       + [(degree, degree + 1)])
        (ref, ref_rounds), (got, got_rounds) = refine_both(
            query, target, "max")
        assert got == ref and ref[0] == set()
        assert got_rounds == ref_rounds == 1
        # vertices after the emptied one were never visited
        assert ref[degree + 2] == level0_domains(query, target)[degree + 2]


class TestNeighborRows:
    """``neighbor_rows`` reads the target's ``edge_rows``: a query edge
    compatible with one target edge mask gets that mask's list itself,
    and the rows always equal the ones read off the target's adjacency."""

    @staticmethod
    def _rows(query, target):
        """The target's context and the rows of the query's edge (0, 1)."""
        tc = target_context(target)
        (_, _, rows), = [p for p in kernels.neighbor_rows(
            compile_query(query), tc)[0] if p[0] == 1]
        return tc, rows

    @staticmethod
    def _edge(label) -> Graph:
        return Graph(["B", "A"], [(0, 1, label)])

    def test_one_compatible_mask_is_shared(self):
        target = Graph(["A", "B", "C"], [(0, 1, "x"), (1, 2, "y")])
        tc, rows = self._rows(self._edge("x"), target)
        assert rows is tc.edge_rows[global_labelspace().edge_bit("x")]
        assert rows == [0b010, 0b001, 0]

    def test_wildcard_edge_ors_every_mask(self):
        target = Graph(["A", "B", "C"], [(0, 1, "x"), (1, 2, "y")])
        tc, rows = self._rows(self._edge(WILDCARD), target)
        assert len(tc.edge_rows) == 2
        assert all(rows is not r for r in tc.edge_rows.values())
        assert rows == [0b010, 0b101, 0b010]

    def test_closure_label_set_ors_its_masks(self):
        target = GraphClosure([{"A"}, {"B"}, {"C"}, {"A"}])
        target.add_edge(0, 1, {"x"})
        target.add_edge(1, 2, {"x", "y"})
        target.add_edge(2, 3, {"y"})
        tc, rows = self._rows(self._edge("x"), target)
        assert len(tc.edge_rows) == 3
        assert all(rows is not r for r in tc.edge_rows.values())
        assert rows == [0b0010, 0b0101, 0b0010, 0]

    @given(labeled_graphs(edge_labels=ELABELS + [WILDCARD]), dense_targets())
    @settings(max_examples=80, deadline=None)
    def test_rows_equal_adjacency_rows(self, query, target):
        tc = target_context(target)
        nrows = kernels.neighbor_rows(compile_query(query), tc)
        for u, pairs in enumerate(nrows):
            for u2, _, rows in pairs:
                want = query.edge_label_set(u, u2)
                assert rows == [
                    sum(1 << w for w, label in target.adjacency(v).items()
                        if labels_match(want, target.edge_label_set(v, w)))
                    for v in target.vertices()]


class TestRoundTrips:
    def test_masks_domains_round_trip(self):
        domains = [set(), {0, 2, 5}, {63}, {1}]
        assert masks_to_domains(domains_to_masks(domains)) == domains

    def test_resolve_level(self):
        assert resolve_level(0, 3, 4) == 0
        assert resolve_level(2, 3, 4) == 2
        assert resolve_level("max", 3, 4) == 12
        with pytest.raises(ConfigError):
            resolve_level(-1, 3, 4)
        with pytest.raises(ConfigError):
            resolve_level("huge", 3, 4)


class TestEndToEnd:
    """The index against the reference matchers' scan over its stored
    graphs: identical answers and candidates, sorted by id."""

    @pytest.fixture(scope="class")
    def tree_and_db(self, request):
        from repro.ctree.bulkload import bulk_load
        from repro.datasets.chemical import (
            ChemicalConfig,
            generate_chemical_database,
        )

        db = generate_chemical_database(
            40, seed=9,
            config=ChemicalConfig(mean_vertices=12, large_fraction=0.0),
        )
        return bulk_load(db, min_fanout=3), db

    def _queries(self, db):
        from repro.datasets.queries import generate_subgraph_queries

        return generate_subgraph_queries(db, 4, 6, seed=5)

    def test_subgraph_query_identical(self, tree_and_db):
        from repro.ctree.subgraph_query import subgraph_query

        tree, db = tree_and_db
        stored = stored_graphs(tree)
        for level in (1, "max"):
            for query in self._queries(db):
                answers, stats = subgraph_query(tree, query, level=level)
                assert answers == reference_scan(stored, query)
                assert stats.candidates == \
                    len(reference_scan(stored, query, level))

    def test_unverified_candidates_identical(self, tree_and_db):
        from repro.ctree.subgraph_query import subgraph_query

        tree, db = tree_and_db
        stored = stored_graphs(tree)
        for query in self._queries(db):
            candidates, _ = subgraph_query(tree, query, verify=False)
            assert candidates == reference_scan(stored, query, 1)

    def test_disk_query_identical(self, tree_and_db, tmp_path):
        from repro.ctree.diskindex import DiskCTree

        tree, db = tree_and_db
        path = tmp_path / "kernels.ctp"
        with DiskCTree.create(tree, path, cache_pages=32) as disk:
            stored = stored_graphs(disk)
            for query in self._queries(db)[:3]:
                answers, stats = disk.subgraph_query(query)
                assert answers == reference_scan(stored, query)
                assert stats.candidates == \
                    len(reference_scan(stored, query, 1))

    def test_knn_identical_with_and_without_context(self, tree_and_db):
        # K-NN does not use the bitset kernels, but its bound path moved to
        # SimilarityQueryContext; pin it against the linear scan, ties
        # included.
        from repro.ctree.similarity_query import knn_query, linear_scan_knn

        tree, db = tree_and_db
        query = self._queries(db)[0]
        results, _ = knn_query(tree, query, k=3)
        reference = linear_scan_knn(dict(enumerate(db)), query, k=3)
        assert results == reference
