"""Unit tests for Neighbor Biased Mapping (Alg. 1)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.closure import (
    EPSILON,
    WILDCARD,
    GraphClosure,
    as_closure,
    closure_under_mapping,
)
from repro.graphs.graph import Graph
from repro.matching.bounds import sim_upper_bound
from repro.matching.edit_distance import (
    MAPPING_METHODS,
    graph_distance,
    graph_similarity,
)
from repro.matching.nbm import (
    NEIGHBORHOOD_INIT,
    NbmScorer,
    nbm_mapping,
    nbm_score,
)
from oracles.graphs import matched_pairs, subgraph_cost, vertex_permuted
from oracles.nbm import nbm_mapping_reference

from conftest import path_graph, random_labeled_graph, star, triangle


class TestBasics:
    def test_empty_graphs(self):
        m = nbm_mapping(Graph(), Graph(["A"]))
        assert matched_pairs(m) == {}

    def test_identical_tiny_graph_perfect(self):
        g = triangle()
        m = nbm_mapping(g, g)
        assert m.edit_cost() == 0.0
        assert m.similarity() == 6.0

    def test_covers_smaller_graph(self):
        g1 = path_graph(["A", "B"])
        g2 = path_graph(["A", "B", "C", "D"])
        m = nbm_mapping(g1, g2)
        assert len(matched_pairs(m)) == 2

    def test_unequal_sizes_leave_dummies(self):
        g1 = path_graph(["A", "B", "C"])
        g2 = Graph(["A"])
        m = nbm_mapping(g1, g2)
        assert len(matched_pairs(m)) == 1
        dummy_side = [u for u, v in m.pairs if v is None]
        assert len(dummy_side) == 2

    def test_label_preference(self):
        g1 = Graph(["A", "B"], [(0, 1)])
        g2 = Graph(["B", "A"], [(0, 1)])
        m = nbm_mapping(g1, g2)
        assert matched_pairs(m) == {0: 1, 1: 0}
        assert m.edit_cost() == 0.0


class TestNeighborBias:
    def test_extends_common_substructure(self):
        # Two copies of a distinctive path embedded among decoys: the bias
        # should map the path onto the path.
        g1 = path_graph(["X", "Y", "Z"])
        g2 = Graph(["X", "Y", "Z", "X", "Y"], [(0, 1), (1, 2), (3, 4)])
        m = nbm_mapping(g1, g2)
        pairs = matched_pairs(m)
        # Mapped image must preserve both path edges.
        assert m.similarity() == 5.0, pairs

    def test_permuted_self_mapping_is_perfect_on_distinct_labels(self, rng):
        g = random_labeled_graph(rng, 12, num_labels=12)
        h = vertex_permuted(g, rng)
        m = nbm_mapping(g, h)
        assert m.edit_cost() == 0.0

    def test_neighborhood_init_breaks_label_ties(self):
        # All vertices share one label; only structure distinguishes them.
        g = star("C", ["C", "C", "C"])
        h = path_graph(["C", "C", "C", "C"])
        m = nbm_mapping(g, h)
        # Star center (degree 3) cannot embed in a path; some edges must be
        # lost, but vertex matching should still be complete.
        assert len(matched_pairs(m)) == 4

    def test_self_distance_mostly_zero_on_chemical_graphs(self, chem_db_small, rng):
        nonzero = 0
        for g in chem_db_small[:20]:
            if nbm_mapping(g, vertex_permuted(g, rng)).edit_cost() > 0:
                nonzero += 1
        # Heuristic: allow a few misses, but most must be exact.
        assert nonzero <= 6


class TestClosureSupport:
    def test_maps_graph_onto_closure(self):
        c = GraphClosure([{"A", "B"}, {"C"}])
        c.add_edge(0, 1, {None})
        g = Graph(["B", "C"], [(0, 1)])
        m = nbm_mapping(g, c)
        assert m.edit_cost() == 0.0

    def test_similarity_below_upper_bound(self, rng):
        for _ in range(10):
            g1 = random_labeled_graph(rng, rng.randrange(3, 12))
            g2 = random_labeled_graph(rng, rng.randrange(3, 12))
            m = nbm_mapping(g1, g2)
            assert m.similarity() <= sim_upper_bound(g1, g2) + 1e-9


class TestDeterminism:
    def test_repeated_runs_identical(self, rng):
        g1 = random_labeled_graph(rng, 15)
        g2 = random_labeled_graph(rng, 15)
        m1 = nbm_mapping(g1, g2)
        m2 = nbm_mapping(g1, g2)
        assert m1.pairs == m2.pairs


# ----------------------------------------------------------------------
# The compiled kernel against the reference loop
# ----------------------------------------------------------------------
VLABELS = ["A", "B", "C", WILDCARD]
ELABELS = [None, "x", 1, 2]


@st.composite
def graphs(draw, max_vertices=7, vlabels=VLABELS, elabels=ELABELS):
    """Graphs over the full label surface: wildcard vertices, ``None`` /
    string / integer edge labels, isolated vertices, the empty graph."""
    n = draw(st.integers(0, max_vertices))
    g = Graph([draw(st.sampled_from(vlabels)) for _ in range(n)])
    density = draw(st.sampled_from([0.0, 0.3, 0.7]))
    for u in range(n):
        for v in range(u + 1, n):
            if draw(st.floats(0, 1)) < density:
                g.add_edge(u, v, draw(st.sampled_from(elabels)))
    return g


@st.composite
def closures(draw, max_vertices=6):
    """The closure of two graphs under a random partial mapping: label
    sets of size 1-2, ε on unmatched vertices and one-sided edges."""
    g1, g2 = draw(graphs(max_vertices)), draw(graphs(max_vertices))
    n1, n2 = g1.num_vertices, g2.num_vertices
    k = draw(st.integers(0, min(n1, n2)))
    us = draw(st.permutations(range(n1)))[:k]
    vs = draw(st.permutations(range(n2)))[:k]
    pairs = list(zip(us, vs))
    pairs += [(u, None) for u in range(n1) if u not in us]
    pairs += [(None, v) for v in range(n2) if v not in vs]
    return closure_under_mapping(g1, g2, pairs)


graph_likes = st.one_of(graphs(), closures())
#: one vertex and one edge label: every weight ties until the structure
#: breaks it
carbon_graphs = graphs(vlabels=["C"], elabels=[None])


def assert_kernel_equals_reference(g1, g2):
    """The kernel equals the reference loop at the product's
    ``NEIGHBORHOOD_INIT`` (the reference's default)."""
    got = nbm_mapping(g1, g2)
    ref = nbm_mapping_reference(g1, g2, neighborhood_init=NEIGHBORHOOD_INIT)
    assert got.pairs == ref.pairs
    assert NbmScorer(g1).match(g2) == matched_pairs(ref)
    assert got.similarity() == ref.similarity()
    assert got.edit_cost() == ref.edit_cost()
    assert subgraph_cost(got) == subgraph_cost(ref)
    assert got.closure().to_dict() == ref.closure().to_dict()
    assert graph_similarity(g1, g2) == ref.similarity()
    assert graph_distance(g1, g2) == ref.edit_cost()
    assert nbm_score(g1, g2) == (ref.similarity(), ref.edit_cost())


class TestKernelDifferential:
    @given(graph_likes, graph_likes)
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_reference(self, g1, g2):
        assert_kernel_equals_reference(g1, g2)

    @given(graphs(max_vertices=9), graphs(max_vertices=4))
    @settings(max_examples=60, deadline=None)
    def test_dummy_leftovers(self, big, small):
        # n1 > n2: the heap outlives g2, leftovers pair with dummies.
        assert_kernel_equals_reference(big, small)
        assert_kernel_equals_reference(small, big)

    def test_empty_sides(self):
        for g1, g2 in [(Graph(), Graph()), (Graph(), triangle()),
                       (triangle(), Graph()),
                       (GraphClosure(), Graph(["A"]))]:
            assert_kernel_equals_reference(g1, g2)
            assert NbmScorer(g1).match(g2) == {}

    def test_chemical_graphs_and_tree_closures(self, chem_db_small):
        from repro.ctree.bulkload import bulk_load

        db = chem_db_small[:30]
        tree = bulk_load(db, min_fanout=3)
        nodes = [tree.root] + [c for c in tree.root.children
                               if not tree.root.is_leaf]
        closures = [node.closure for node in nodes]
        for i, g in enumerate(db):
            assert_kernel_equals_reference(g, db[(7 * i + 3) % len(db)])
            assert_kernel_equals_reference(closures[i % len(closures)], g)
        for c1 in closures:
            for c2 in closures:
                assert_kernel_equals_reference(c1, c2)

    def test_unbalanced_tree_closures_and_chemical_graphs(self, chem_db_small):
        """n1 >> n2 and n1 << n2: Alg. 1 returns once the smaller side is
        used up and strikes taken columns out of a row only at its
        re-key — bit-identical to the reference either way, on tree
        closures and on those closures folded against a graph."""
        from repro.ctree.bulkload import bulk_load

        db = chem_db_small
        tree = bulk_load(db[:40], min_fanout=3)
        closures = [tree.root.closure]
        closures += [c.closure for c in tree.root.children]
        closures += [nbm_mapping(c, g).closure()
                     for c, g in zip(closures, db[40:])]
        small = [g.subgraph(range(k)) for k, g in zip((1, 2, 3, 4), db[44:])]
        for c in closures:
            scorer = NbmScorer(c)
            for g in small:
                assert c.num_vertices >= 4 * g.num_vertices
                assert_kernel_equals_reference(c, g)
                assert_kernel_equals_reference(g, c)
                assert_scorer_equals_reference(scorer, g)
                assert_scorer_equals_reference(NbmScorer(g), c)

    def test_custom_measures_take_the_reference_loop(self):
        """``nbm_mapping`` is the kernel at the paper's constants only;
        other bonuses and initial weights are the reference's."""
        g1, g2 = path_graph("ABC"), path_graph("ACB")
        biased = nbm_mapping_reference(g1, g2, neighbor_bonus=3.0)
        assert matched_pairs(biased) == {0: 0, 1: 2, 2: 1}
        with pytest.raises(TypeError):
            nbm_mapping(g1, g2, neighbor_bonus=3.0)
        for call in (nbm_mapping, graph_distance, graph_similarity):
            with pytest.raises(TypeError):
                call(g1, g2, neighborhood_init=0.0)


def rebuilt(g, rnd):
    """``g`` with its edges added in a shuffled order, each with its
    endpoints in a random order: the same labelled graph (or closure)
    under another adjacency order."""
    edges = list(g.edges())
    rnd.shuffle(edges)
    if isinstance(g, GraphClosure):
        h = GraphClosure(g.label_set(v) for v in g.vertices())
    else:
        h = Graph([g.label(v) for v in g.vertices()])
    for u, v, label in edges:
        h.add_edge(*((v, u) if rnd.random() < 0.5 else (u, v)), label)
    return h


class TestAdjacencyOrder:
    """Alg. 1 breaks its ties on vertex ids, so a pair's mapping is a
    function of the two labelled graphs alone: the order their edges were
    added in — the form a graph has in memory, on disk or after a copy —
    changes nothing."""

    @given(st.one_of(graph_likes, carbon_graphs),
           st.one_of(graph_likes, carbon_graphs),
           st.sampled_from(["first", "second", "both"]),
           st.randoms(use_true_random=False))
    @settings(max_examples=300, deadline=None)
    def test_nbm_ignores_edge_order(self, g1, g2, side, rnd):
        h1 = rebuilt(g1, rnd) if side != "second" else g1
        h2 = rebuilt(g2, rnd) if side != "first" else g2
        assert h1 == g1 and h2 == g2
        scorer, shuffled = NbmScorer(g1), NbmScorer(h1)
        assert shuffled.match(h2) == scorer.match(g2)
        assert shuffled.score(h2) == scorer.score(g2)
        assert (nbm_mapping_reference(h1, h2).pairs
                == nbm_mapping_reference(g1, g2).pairs)

    @pytest.mark.parametrize("method", sorted(MAPPING_METHODS))
    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_every_mapping_method_ignores_edge_order(self, method, data):
        # Exhaustive state search needs small graphs: |V| <= 6.
        small = method == "state"
        size = 6 if small else 7
        likes = st.one_of(graphs(size), closures(3 if small else 6),
                          graphs(size, ["C"], [None]))
        g1, g2 = data.draw(likes), data.draw(likes)
        rnd = data.draw(st.randoms(use_true_random=False))
        mapper = MAPPING_METHODS[method]
        assert (mapper(rebuilt(g1, rnd), rebuilt(g2, rnd)).pairs
                == mapper(g1, g2).pairs)

    def test_chemical_graphs_and_tree_closures(self, chem_db_small, rng):
        from repro.ctree.bulkload import bulk_load

        db = chem_db_small[:40]
        tree = bulk_load(db, min_fanout=3)
        closures = [tree.root.closure] + [c.closure for c in tree.root.children]
        for c in closures:
            scorer, shuffled = NbmScorer(c), NbmScorer(rebuilt(c, rng))
            for g in db:
                h = rebuilt(g, rng)
                assert shuffled.match(h) == scorer.match(g)
                assert NbmScorer(h).score(c) == NbmScorer(g).score(
                    rebuilt(c, rng))


def assert_scorer_equals_reference(scorer, target):
    ref = nbm_mapping_reference(scorer.query, target)
    assert scorer.mapping(target).pairs == ref.pairs
    assert scorer.match(target) == matched_pairs(ref)
    assert scorer.similarity(target) == ref.similarity()
    assert scorer.score(target) == (ref.similarity(), ref.edit_cost())


class TestScorerReuse:
    """One scorer, many targets: its weight columns are a pure memo, so
    order and repetition change nothing."""

    @given(graph_likes, st.lists(graph_likes, min_size=1, max_size=6),
           st.randoms(use_true_random=False))
    @settings(max_examples=120, deadline=None)
    def test_any_order_any_repetition(self, query, targets, rnd):
        scorer = NbmScorer(query)
        order = targets + targets + [Graph()]
        rnd.shuffle(order)
        for target in order:
            assert_scorer_equals_reference(scorer, target)

    def test_chemical_targets_shuffled(self, chem_db_small, rng):
        from repro.ctree.bulkload import bulk_load

        db = chem_db_small[:40]
        tree = bulk_load(db, min_fanout=3)
        closures = [tree.root.closure] + [c.closure for c in tree.root.children]
        epsilon = GraphClosure([{"C", EPSILON}, {"O"}, {EPSILON, "N"}])
        epsilon.add_edge(0, 1, {None, EPSILON})
        small = min(db, key=lambda g: g.num_vertices)
        assert any(g.num_vertices > small.num_vertices for g in db)
        for query in (small, db[0], closures[1]):
            scorer = NbmScorer(query)
            targets = db + closures + [epsilon, Graph(), query]
            rng.shuffle(targets)
            for target in targets + targets[:10]:
                assert_scorer_equals_reference(scorer, target)

    def test_copies_of_a_graph_share_its_columns(self, chem_db_small):
        g, q = chem_db_small[0], chem_db_small[1]
        scorer = NbmScorer(q)
        want = scorer.score(g)
        held = len(scorer._columns)
        assert scorer.score(g.copy()) == want
        assert len(scorer._columns) == held

    def test_built_after_a_labelspace_reset(self, chem_db_small):
        from repro.graphs.labelspace import reset_labelspace

        q, targets = chem_db_small[2], chem_db_small[:8]
        stale = NbmScorer(q)
        stale.score(targets[0])
        reset_labelspace()
        fresh = NbmScorer(q)
        for target in targets:
            assert_scorer_equals_reference(fresh, target)
            # ... and the one built before follows the new space.
            assert_scorer_equals_reference(stale, target)

    def test_query_mutation_recompiles(self):
        q = Graph(["A", "B", "C", "A"], [(0, 1), (1, 2), (2, 3)])
        other = Graph(["A", "A", "B", "C", "B"],
                      [(0, 2), (2, 3), (3, 1), (1, 4)])
        scorer = NbmScorer(q)
        scorer.score(other)
        q.add_edge(0, 3, "x")
        assert_scorer_equals_reference(scorer, other)


class TestKernelMemo:
    """The kernel reads per-graph memos; every mutator must drop them."""

    @pytest.mark.parametrize("mutate", [
        lambda g: g.add_vertex("B"),
        lambda g: g.add_edge(0, 3, "x"),
    ], ids=["add_vertex", "add_edge"])
    def test_graph_mutation_invalidates(self, mutate):
        g = Graph(["A", "B", "C", "A"], [(0, 1), (1, 2), (2, 3)])
        other = Graph(["A", "A", "B", "C", "B"],
                      [(0, 2), (2, 3), (3, 1), (1, 4)])
        nbm_score(g, other), nbm_score(other, g)  # memoize both sides
        mutate(g)
        fresh = Graph.from_dict(g.to_dict())
        assert NbmScorer(g).match(other) == NbmScorer(fresh).match(other)
        assert nbm_score(g, other) == nbm_score(fresh, other)
        assert nbm_score(other, g) == nbm_score(other, fresh)
        assert_kernel_equals_reference(g, other)
        assert_kernel_equals_reference(other, g)

    def test_closure_mutation_invalidates(self):
        c = GraphClosure([{"A", "B"}, {"C"}, {"A", EPSILON}])
        c.add_edge(0, 1, {None})
        g = Graph(["A", "C", "A", "B"], [(0, 1), (1, 2), (2, 3)])
        nbm_score(c, g)
        c.add_edge(1, 2, {None, EPSILON})
        v = c.add_vertex({"B"})
        c.add_edge(2, v, {"x"})
        fresh = GraphClosure.from_dict(c.to_dict())
        assert NbmScorer(c).match(g) == NbmScorer(fresh).match(g)
        assert_kernel_equals_reference(c, g)

    @pytest.mark.parametrize("mutate", [
        lambda g: g.add_vertex("B"),
        lambda g: g.add_edge(0, 3, "x"),
    ], ids=["add_vertex", "add_edge"])
    def test_singleton_closure_outlives_changes_to_its_graph(self, mutate):
        """``as_closure(g)`` reads g's interned vertex keys as they were
        when it was made: a later change to g moves neither side's match
        of the closure (the closure still holds g's old labels)."""
        g = Graph(["C", "C", "C", "B", "A"],
                  [(0, 1), (1, 2), (2, 3), (3, 4)])
        other = Graph(["B", "C", "C", "B"], [(1, 2), (1, 3), (2, 3)])
        c, kept = as_closure(g), as_closure(g.copy())
        mutate(g)
        assert NbmScorer(c).match(other) == NbmScorer(kept).match(other)
        assert NbmScorer(other).match(c) == NbmScorer(other).match(kept)
        assert_kernel_equals_reference(c, other)
        assert_kernel_equals_reference(other, c)

    def test_singleton_closure_mutation_recounts(self):
        g = Graph(["A", "B", "C", "A"], [(0, 1), (1, 2), (2, 3)])
        other = Graph(["A", "A", "B", "C", "B"],
                      [(0, 2), (2, 3), (3, 1), (1, 4)])
        c = as_closure(g)
        c.add_edge(0, 3, {"x"})
        c.add_vertex({"B", "C"})
        assert_kernel_equals_reference(c, other)
        assert_kernel_equals_reference(other, c)

    def test_copy_and_pickle_start_clean(self):
        import pickle

        g = triangle()
        nbm_score(g, g)
        for clone in (g.copy(), pickle.loads(pickle.dumps(g))):
            assert clone._kernel_ctx is None
            assert nbm_score(clone, g) == nbm_score(g, g)

    def test_one_context_two_lazy_halves(self):
        from repro.graphs.labelspace import label_context, target_context

        g, h = triangle(), path_graph("ABCA")
        nbm_score(g, h)
        ctx = label_context(g)
        assert ctx.profiles is not None and ctx.edge_rows is None
        assert target_context(g) is ctx and ctx.edge_rows is not None
        assert label_context(h).edge_rows is None

    def test_memo_is_small(self, chem_db_small):
        """Three lists of shared ints per graph: what the kernel adds to
        the compiled context stays under 1 KB on a spine-sized molecule."""
        from repro.graphs.labelspace import nbm_context

        for g in chem_db_small:
            ctx = nbm_context(g)
            added = (sys.getsizeof(ctx.vmasks) + sys.getsizeof(ctx.profiles)
                     + sys.getsizeof(ctx.vkeys)
                     + sys.getsizeof(ctx.edge_masks))
            assert added < 1024, (g, added)
        # equal profiles are one object, not one per vertex ...
        ids = {id(p) for g in chem_db_small for p in nbm_context(g).profiles}
        vertices = sum(g.num_vertices for g in chem_db_small)
        assert 4 * len(ids) < vertices
        # ... and so are the keys: atoms alike in label and neighbours recur
        keys = {k for g in chem_db_small for k in nbm_context(g).vkeys}
        assert 2 * len(keys) < vertices
        closure = closure_under_mapping(
            chem_db_small[0], chem_db_small[1],
            [(0, 0)] + [(u, None) for u in range(
                1, chem_db_small[0].num_vertices)]
            + [(None, v) for v in range(1, chem_db_small[1].num_vertices)])
        assert nbm_context(closure).vkeys is None  # closures are not interned


_HASH_SEED_SCRIPT = """
import json, sys
from repro.graphs.io import load_graph_database
from repro.ctree.bulkload import bulk_load
from repro.matching.nbm import NbmScorer, nbm_score
db = load_graph_database(sys.argv[1])
tree = bulk_load(db, min_fanout=3)
closures = [child.closure for child in tree.root.children]
out = []
for c in closures:
    for g in db[::3]:
        out.append([sorted(NbmScorer(c).match(g).items()), nbm_score(g, c)])
print(json.dumps(out))
"""


@pytest.mark.parametrize("hash_seed", ["0", "4242"])
def test_kernel_independent_of_hash_seed(hash_seed):
    """Closure label sets iterate in hash order; neither the interned
    masks nor the matches may depend on it — the reference loop in this
    process is the expectation for both seeds."""
    from repro.ctree.bulkload import bulk_load
    from repro.graphs.io import load_graph_database

    data = Path(__file__).parent / "data" / "golden_chem.jsonl"
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-c", _HASH_SEED_SCRIPT, str(data)],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    db = load_graph_database(data)
    tree = bulk_load(db, min_fanout=3)
    expected = []
    for child in tree.root.children:
        for g in db[::3]:
            ref = nbm_mapping_reference(child.closure, g)
            back = nbm_mapping_reference(g, child.closure)
            expected.append([
                [list(p) for p in sorted(matched_pairs(ref).items())],
                [back.similarity(), back.edit_cost()]])
    assert json.loads(done.stdout) == expected
