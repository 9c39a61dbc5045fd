"""Unit tests for Ullmann subgraph isomorphism, cross-validated against
networkx monomorphism (on the mask kernel, the one engine) and against
the set-based reference, embedding for embedding."""

import copy
import random
from unittest import mock

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.closure import WILDCARD, GraphClosure, closure_under_mapping
from repro.graphs.graph import Graph
from repro.graphs.operations import random_connected_subgraph
from repro.obs.metrics import global_registry
from repro.matching import kernels
from repro.matching.kernels import domains_to_masks
from repro.matching.ullmann import (
    enumerate_embeddings,
    find_embedding,
    subgraph_isomorphic,
)
from oracles.graphs import vertex_permuted
from oracles.interop import to_networkx
from oracles.pseudo_iso import reference_domains
from oracles.ullmann import (
    compatibility_domains,
    graph_isomorphic,
    reference_embeddings,
    refine_domains,
)

from conftest import (
    drawn_closure,
    path_graph,
    random_labeled_graph,
    star,
    triangle,
)


def nx_monomorphic(query: Graph, target: Graph) -> bool:
    gm = nx.algorithms.isomorphism.GraphMatcher(
        to_networkx(target),
        to_networkx(query),
        node_match=lambda a, b: a["label"] == b["label"],
        edge_match=lambda a, b: a.get("label") == b.get("label"),
    )
    return gm.subgraph_is_monomorphic()


class TestBasics:
    def test_empty_query_always_matches(self):
        assert subgraph_isomorphic(Graph(), triangle())
        assert find_embedding(Graph(), triangle()) == {}

    def test_query_larger_than_target(self):
        assert not subgraph_isomorphic(triangle(), Graph(["A"]))

    def test_single_vertex(self):
        assert subgraph_isomorphic(Graph(["B"]), triangle())
        assert not subgraph_isomorphic(Graph(["Z"]), triangle())

    def test_extracted_subgraph_always_found(self, rng):
        for _ in range(10):
            g = random_labeled_graph(rng, 12)
            q = random_connected_subgraph(g, rng.randrange(2, 8), rng)
            assert subgraph_isomorphic(q, g)

    def test_monomorphism_not_induced(self):
        # Path A-B-C embeds in triangle even though the triangle has the
        # extra A-C edge (non-induced semantics).
        q = path_graph(["A", "B", "C"])
        assert subgraph_isomorphic(q, triangle())

    def test_label_mismatch_blocks(self):
        assert not subgraph_isomorphic(Graph(["A", "Z"], [(0, 1)]), triangle())

    def test_degree_constraint(self):
        # A 3-star cannot embed in a path.
        q = star("C", ["C", "C", "C"])
        t = path_graph(["C"] * 6)
        assert not subgraph_isomorphic(q, t)

    def test_edge_labels_respected(self):
        q = Graph(["A", "B"], [(0, 1, "double")])
        t1 = Graph(["A", "B"], [(0, 1, "double")])
        t2 = Graph(["A", "B"], [(0, 1, "single")])
        assert subgraph_isomorphic(q, t1)
        assert not subgraph_isomorphic(q, t2)


class TestEmbeddings:
    def test_embedding_is_valid(self, rng):
        g = random_labeled_graph(rng, 10)
        q = random_connected_subgraph(g, 5, rng)
        embedding = find_embedding(q, g)
        assert embedding is not None
        assert len(set(embedding.values())) == q.num_vertices
        for v in q.vertices():
            assert q.label(v) == g.label(embedding[v])
        for u, v, label in q.edges():
            assert g.has_edge(embedding[u], embedding[v])

    def test_enumerate_counts_triangle_automorphisms(self):
        g = Graph(["A", "A", "A"], [(0, 1), (1, 2), (0, 2)])
        embeddings = list(enumerate_embeddings(g, g))
        assert len(embeddings) == 6  # all vertex permutations

    def test_enumerate_limit(self):
        g = Graph(["A", "A", "A"], [(0, 1), (1, 2), (0, 2)])
        assert len(list(enumerate_embeddings(g, g, limit=2))) == 2

    def test_precomputed_domains_respected(self):
        q = Graph(["A"])
        t = Graph(["A", "A"])
        # Artificially restrict to target vertex 1 only.
        embeddings = list(enumerate_embeddings(q, t, domains=[{1}]))
        assert embeddings == [{0: 1}]


class TestRefinement:
    def test_initial_domains_use_degree(self):
        q = path_graph(["A", "B"])
        t = Graph(["A", "B", "A"], [(0, 1)])
        domains = compatibility_domains(q, t)
        # Isolated target vertex 2 fails the degree precondition.
        assert domains[0] == {0}

    def test_refine_removes_unsupported(self):
        q = path_graph(["A", "B"])
        # Two degree-1 A vertices in the target, but only one has a
        # B-labeled neighbor.
        t = Graph(["A", "B", "A", "C"], [(0, 1), (2, 3)])
        domains = compatibility_domains(q, t)
        assert domains[0] == {0, 2}
        refine_domains(q, t, domains)
        assert domains[0] == {0}


class TestAgainstNetworkx:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_pairs(self, seed):
        # networkx is the independent oracle of the engine that serves.
        rng = random.Random(seed)
        q = random_labeled_graph(rng, rng.randrange(2, 6), num_labels=2)
        t = random_labeled_graph(rng, rng.randrange(2, 9), num_labels=2)
        assert subgraph_isomorphic(q, t) == nx_monomorphic(q, t)


class TestGraphIsomorphism:
    def test_permuted_copies(self, rng):
        g = random_labeled_graph(rng, 8)
        assert graph_isomorphic(g, vertex_permuted(g, rng))

    def test_different_sizes(self):
        assert not graph_isomorphic(triangle(), path_graph(["A", "B"]))

    def test_same_counts_different_structure(self):
        g1 = path_graph(["A", "A", "A", "A"])
        g2 = star("A", ["A", "A", "A"])
        assert not graph_isomorphic(g1, g2)


class TestClosureTargets:
    def test_graph_embeds_in_its_closure(self):
        g1 = path_graph(["A", "B", "C"])
        g2 = path_graph(["A", "D", "C"])
        c = closure_under_mapping(g1, g2, [(i, i) for i in range(3)])
        assert subgraph_isomorphic(g1, c)
        assert subgraph_isomorphic(g2, c)

    def test_non_member_can_be_rejected(self):
        c = GraphClosure([{"A"}, {"B"}])
        c.add_edge(0, 1, {None})
        assert not subgraph_isomorphic(Graph(["Z"]), c)


# ----------------------------------------------------------------------
# Mask kernel vs the set-based engine
# ----------------------------------------------------------------------
_VLABELS = ["A", "B", WILDCARD]
_ELABELS = [None, None, 1, 2, WILDCARD]
_COUNTERS = [global_registry().counter(f"matching.ullmann.{name}")
             for name in ("calls", "search_nodes")]


@st.composite
def graphs(draw, max_vertices):
    """Possibly empty, possibly with isolated vertices; ``None``, int and
    wildcard edge labels."""
    n = draw(st.integers(0, max_vertices))
    g = Graph([draw(st.sampled_from(_VLABELS)) for _ in range(n)])
    for u in range(n):
        for v in range(u + 1, n):
            if draw(st.booleans()):
                g.add_edge(u, v, draw(st.sampled_from(_ELABELS)))
    return g


@st.composite
def graph_likes(draw, max_vertices):
    """A graph, or the closure of two under a drawn partial mapping
    (label sets and ε on vertices and edges)."""
    g1 = draw(graphs(max_vertices))
    if draw(st.booleans()):
        return g1
    return drawn_closure(draw, g1, draw(graphs(max_vertices)))


#: the kernel behind the entry points, and its set-based reference
ENGINES = (enumerate_embeddings, reference_embeddings)


def run_engine(engine, query, target, domains, limit):
    """``(embeddings with their key order, calls, search nodes)``."""
    before = [c.value for c in _COUNTERS]
    found = [list(e.items()) for e in engine(query, target, domains, limit)]
    return [found] + [c.value - b for c, b in zip(_COUNTERS, before)]


class TestMaskKernelAgainstReference:
    @given(query=graph_likes(6), target=graph_likes(7),  # query degree <= 5
           limit=st.sampled_from([None, 1, 2, 5]),
           seeds=st.sampled_from(["absent", "sets", "masks"]))
    @settings(max_examples=300, deadline=None)
    def test_identical_sequence_verdict_and_counts(self, query, target,
                                                   limit, seeds):
        domains = None
        if seeds != "absent":
            domains = reference_domains(query, target, 1)
        want = run_engine(reference_embeddings, query, target, domains,
                          limit)
        if seeds == "masks":
            domains = domains_to_masks(domains)
        got = run_engine(enumerate_embeddings, query, target, domains, limit)
        assert got == want
        assert want[1] == 1  # one call each, however far the search went
        if limit is not None:
            assert len(want[0]) <= limit
        assert subgraph_isomorphic(query, target, domains) == bool(want[0])
        assert find_embedding(query, target, domains) == \
            (dict(want[0][0]) if want[0] else None)

    def test_seeds_are_not_consumed(self):
        q, t = path_graph(["A", "B"]), triangle()
        for engine, seeds in ((enumerate_embeddings, [{0, 1, 2}, {0, 1}]),
                              (enumerate_embeddings, [0b111, 0b011]),
                              (reference_embeddings, [{0, 1, 2}, {0, 1}])):
            kept = copy.deepcopy(seeds)
            assert next(engine(q, t, seeds), None) is not None
            assert seeds == kept

    def test_edge_cases_on_both_engines(self):
        lonely = Graph(["A", "A", "B"], [(0, 1)])  # an isolated query vertex
        cases = [
            (Graph(), triangle(), [[]]),                  # empty query
            (triangle(), Graph(["A"]), []),               # n1 > n2
            (lonely, Graph(["A", "A", "B"], [(0, 1)]),
             [[(0, 0), (1, 1), (2, 2)], [(0, 1), (1, 0), (2, 2)]]),
            (Graph(["Z"]), triangle(), []),               # an empty domain
        ]
        for query, target, expected in cases:
            for engine in ENGINES:
                found = run_engine(engine, query, target, None, None)[0]
                assert sorted(sorted(e) for e in found) == expected

    def test_search_nodes_count_assignments(self):
        # A-A-A in a triangle of A's: 1 root + 3 + 3*2 + 3*2*1 assignments.
        g = Graph(["A", "A", "A"], [(0, 1), (1, 2), (0, 2)])
        for engine in ENGINES:
            found, calls, nodes = run_engine(engine, g, g, None, None)
            assert (len(found), calls, nodes) == (6, 1, 16)
            # ... and an abandoned generator still reports what it searched
            before = _COUNTERS[1].value
            assert next(engine(g, g)) is not None
            assert _COUNTERS[1].value - before == 4

    def test_default_engine_is_the_mask_kernel(self):
        with mock.patch.object(kernels, "embeddings_masks",
                               return_value=iter([{0: 7}])) as kernel:
            assert find_embedding(Graph(["A"]), triangle()) == {0: 7}
        assert kernel.call_count == 1
