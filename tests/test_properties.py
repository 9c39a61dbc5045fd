"""Property-based tests (hypothesis) for the core invariants.

These encode the paper's mathematical claims directly:

- closures contain their members (histograms dominate; pseudo-iso accepts),
- pseudo subgraph isomorphism never produces false negatives (Lemma 1),
- Eqn. (7) upper-bounds similarity under any mapping,
- graph distance under the uniform measure behaves like a metric,
- matching algorithms agree with reference implementations,
- the C-tree keeps its invariants under arbitrary insert/delete sequences,
- Alg. 3's candidates are exactly the graphs passing Alg. 2 (a closure
  test could only prune subtrees whose graphs all fail it),
- an index answers with the linear scan's list, K-NN ties included.
"""

from __future__ import annotations

import random
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.closure import WILDCARD
from repro.graphs.graph import Graph
from repro.graphs.operations import random_connected_subgraph
from repro.matching.bounds import distance_lower_bound, sim_upper_bound
from repro.matching.nbm import nbm_mapping
from repro.matching.pseudo_iso import pseudo_subgraph_isomorphic
from oracles.graphs import vertex_permuted
from oracles.histogram import LabelHistogram
from oracles.state_search import optimal_distance
from repro.matching.ullmann import subgraph_isomorphic
from repro.ctree.tree import CTree

from conftest import reference_scan, stored_graphs

LABELS = ["A", "B", "C"]


@st.composite
def graphs(draw, min_vertices=1, max_vertices=7):
    """Random small labeled graphs."""
    n = draw(st.integers(min_vertices, max_vertices))
    labels = [draw(st.sampled_from(LABELS)) for _ in range(n)]
    g = Graph(labels)
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for u, v in possible:
        if draw(st.booleans()):
            g.add_edge(u, v)
    return g


@st.composite
def graph_pairs_with_mapping(draw):
    """Two graphs plus a random valid extended mapping between them."""
    g1 = draw(graphs())
    g2 = draw(graphs())
    n1, n2 = g1.num_vertices, g2.num_vertices
    rng = random.Random(draw(st.integers(0, 2**16)))
    k = rng.randint(0, min(n1, n2))
    us = rng.sample(range(n1), k)
    vs = rng.sample(range(n2), k)
    partial = dict(zip(us, vs))
    return g1, g2, partial


class TestClosureContainment:
    @given(graph_pairs_with_mapping())
    @settings(max_examples=60, deadline=None)
    def test_closure_histogram_dominates_members(self, data):
        g1, g2, partial = data
        from repro.graphs.mapping import GraphMapping

        mapping = GraphMapping.from_partial(g1, g2, partial)
        closure = mapping.closure()
        hist = LabelHistogram.of(closure)
        assert hist.dominates(LabelHistogram.of(g1))
        assert hist.dominates(LabelHistogram.of(g2))

    @given(graph_pairs_with_mapping())
    @settings(max_examples=40, deadline=None)
    def test_members_embed_in_closure(self, data):
        g1, g2, partial = data
        from repro.graphs.mapping import GraphMapping

        closure = GraphMapping.from_partial(g1, g2, partial).closure()
        assert subgraph_isomorphic(g1, closure)
        assert subgraph_isomorphic(g2, closure)

    @given(graph_pairs_with_mapping())
    @settings(max_examples=40, deadline=None)
    def test_closure_volume_nonnegative(self, data):
        g1, g2, partial = data
        from repro.graphs.mapping import GraphMapping

        closure = GraphMapping.from_partial(g1, g2, partial).closure()
        assert closure.log_volume() >= 0.0


class TestPseudoIsoSoundness:
    @given(graphs(max_vertices=6), graphs(max_vertices=8),
           st.sampled_from([0, 1, 2, "max"]))
    @settings(max_examples=80, deadline=None)
    def test_no_false_negatives(self, q, t, level):
        """Lemma 1: exact sub-isomorphism implies pseudo sub-isomorphism."""
        if subgraph_isomorphic(q, t):
            assert pseudo_subgraph_isomorphic(q, t, level)

    @given(graphs(max_vertices=6), graphs(max_vertices=8))
    @settings(max_examples=60, deadline=None)
    def test_levels_monotone(self, q, t):
        """Passing a deeper level implies passing every shallower level."""
        deeper = pseudo_subgraph_isomorphic(q, t, "max")
        if deeper:
            for level in (0, 1, 2):
                assert pseudo_subgraph_isomorphic(q, t, level)


class TestSimilarityBounds:
    @given(graphs(), graphs())
    @settings(max_examples=60, deadline=None)
    def test_eqn7_dominates_nbm(self, g1, g2):
        assert nbm_mapping(g1, g2).similarity() <= sim_upper_bound(g1, g2) + 1e-9

    @given(graphs(max_vertices=5), graphs(max_vertices=5))
    @settings(max_examples=30, deadline=None)
    def test_distance_lower_bound_sound(self, g1, g2):
        assert distance_lower_bound(g1, g2) <= optimal_distance(g1, g2) + 1e-9


class TestDistanceMetricProperties:
    @given(graphs(max_vertices=4), graphs(max_vertices=4))
    @settings(max_examples=30, deadline=None)
    def test_symmetry(self, g1, g2):
        assert optimal_distance(g1, g2) == optimal_distance(g2, g1)

    @given(graphs(max_vertices=4))
    @settings(max_examples=20, deadline=None)
    def test_identity(self, g):
        assert optimal_distance(g, g) == 0.0

    @given(graphs(max_vertices=4), st.integers(0, 2**16))
    @settings(max_examples=20, deadline=None)
    def test_isomorphism_invariance(self, g, seed):
        h = vertex_permuted(g, random.Random(seed))
        assert optimal_distance(g, h) == 0.0

    @given(graphs(max_vertices=3), graphs(max_vertices=3), graphs(max_vertices=3))
    @settings(max_examples=20, deadline=None)
    def test_triangle_inequality(self, a, b, c):
        assert optimal_distance(a, c) <= (
            optimal_distance(a, b) + optimal_distance(b, c) + 1e-9
        )


class TestCTreeInvariants:
    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 2**16)),
                    min_size=1, max_size=40),
           st.integers(0, 2**16))
    @settings(max_examples=15, deadline=None)
    def test_random_insert_delete_sequences(self, operations, seed):
        tree = CTree(min_fanout=2, max_fanout=3)
        alive: list[int] = []
        for is_delete, op_seed in operations:
            op_rng = random.Random(op_seed)
            if is_delete and alive:
                victim = alive.pop(op_rng.randrange(len(alive)))
                tree.delete_many([victim], seed=seed, auto_compact=False)
            else:
                n = op_rng.randint(1, 6)
                g = Graph([op_rng.choice(LABELS) for _ in range(n)])
                for v in range(1, n):
                    g.add_edge(op_rng.randrange(v), v)
                alive += tree.extend([g], seed=seed)
            # Merge-or-redistribute keeps every node within [m, M] and
            # shrink-or-keep may leave closures loose but never unsound:
            # both hold after *every* step, not just at the end.
            tree.validate(deep=True)
            assert sorted(tree.graph_ids()) == sorted(alive)

    @given(st.integers(0, 2**16))
    @settings(max_examples=10, deadline=None)
    def test_query_equals_linear_scan(self, seed):
        from repro.ctree.subgraph_query import (
            linear_scan_subgraph_query,
            subgraph_query,
        )

        rng = random.Random(seed)
        tree = CTree(min_fanout=2, max_fanout=3)
        graphs_list = []
        for i in range(15):
            n = rng.randint(2, 7)
            g = Graph([rng.choice(LABELS) for _ in range(n)])
            for v in range(1, n):
                g.add_edge(rng.randrange(v), v)
            graphs_list.append(g)
        tree.extend(graphs_list)
        source = graphs_list[rng.randrange(len(graphs_list))]
        size = rng.randint(1, min(4, source.num_vertices))
        query = random_connected_subgraph(source, size, rng)
        answers, _ = subgraph_query(tree, query, level=rng.choice([0, 1, "max"]))
        expected = linear_scan_subgraph_query(dict(tree.graphs()), query)
        assert answers == sorted(expected)


class TestAlg3CandidatesAreAlg2Survivors:
    """Lemma 1 makes every closure test necessary, and pseudo-containment
    is monotone up a lineage: a graph passing Alg. 2 passes at every
    ancestor closure.  So a descent that screens nodes by histogram only
    yields exactly the stored graphs that pass the histogram screen and
    Alg. 2, sorted by id — on either store, at every level.  The scan
    runs the set-based references (``reference_scan``)."""

    @staticmethod
    def _graph(rng: random.Random, max_vertices: int) -> Graph:
        n = rng.randint(1, max_vertices)
        g = Graph([WILDCARD if rng.random() < 0.15 else rng.choice(LABELS)
                   for _ in range(n)])
        for v in range(1, n):
            g.add_edge(rng.randrange(v), v, rng.choice([None, None, "x"]))
        return g

    @given(st.integers(0, 2**16), st.integers(0, 24),
           st.sampled_from([0, 1, "max"]), st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_candidates_equal_alg2_scan(self, seed, n_graphs, level,
                                        on_disk):
        from repro.ctree.diskindex import DiskCTree
        from repro.ctree.subgraph_query import subgraph_query

        rng = random.Random(seed)
        tree = CTree(min_fanout=2, max_fanout=3)
        db = [self._graph(rng, 7) for _ in range(n_graphs)]
        tree.extend(db)
        if db and rng.random() < 0.7:
            source = rng.choice(db)
            query = random_connected_subgraph(
                source, rng.randint(1, min(4, source.num_vertices)), rng)
            labels = [WILDCARD if rng.random() < 0.2 else query.label(v)
                      for v in range(query.num_vertices)]
            query = Graph(labels, list(query.edges()))
        else:
            query = self._graph(rng, 4)
        with tempfile.TemporaryDirectory() as tmp:
            index = DiskCTree.create(tree, Path(tmp) / "t.ctp",
                                     page_size=512, wal=False) \
                if on_disk else tree
            try:
                stored = stored_graphs(index)
                expected = reference_scan(stored, query, level)
                candidates, stats = subgraph_query(
                    index, query, level=level, verify=False)
            finally:
                if on_disk:
                    index.close()
        assert candidates == expected
        assert stats.candidates == len(expected)
        assert sorted(gid for gid, _ in stored) == list(range(n_graphs))


class TestOneAnswerForm:
    """An index returns exactly the linear scan's list, on either store:
    K-NN answers in ``(-similarity, id)`` order, boundary ties included,
    and subgraph answers sorted by id.  Corpora over two or three labels
    make tied similarities common."""

    @given(st.integers(0, 2**16), st.integers(1, 16), st.integers(2, 3))
    @settings(max_examples=25, deadline=None)
    def test_answers_equal_linear_scan(self, seed, n_graphs, n_labels):
        from repro.ctree.diskindex import DiskCTree
        from repro.ctree.similarity_query import knn_query, linear_scan_knn
        from repro.ctree.subgraph_query import (
            linear_scan_subgraph_query,
            subgraph_query,
        )

        rng = random.Random(seed)
        labels = LABELS[:n_labels]

        def graph(max_vertices):
            n = rng.randint(1, max_vertices)
            g = Graph([rng.choice(labels) for _ in range(n)])
            for v in range(1, n):
                g.add_edge(rng.randrange(v), v)
            return g

        db = [graph(6) for _ in range(n_graphs)]
        tree = CTree(min_fanout=2, max_fanout=3)
        tree.extend(db)
        k = rng.randint(1, n_graphs + 1)
        probe = graph(5)
        source = rng.choice(db)
        query = random_connected_subgraph(
            source, rng.randint(1, min(3, source.num_vertices)), rng)
        by_id = dict(enumerate(db))
        want_knn = linear_scan_knn(by_id, probe, k)
        want_sub = sorted(linear_scan_subgraph_query(by_id, query))
        with tempfile.TemporaryDirectory() as tmp:
            with DiskCTree.create(tree, Path(tmp) / "t.ctp", page_size=512,
                                  wal=False) as disk:
                for index in (tree, disk):
                    assert knn_query(index, probe, k)[0] == want_knn
                    assert subgraph_query(index, query)[0] == want_sub
