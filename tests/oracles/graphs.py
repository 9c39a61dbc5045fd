"""Graph fixtures and checks the tests build on: the set form of label
compatibility, isomorphic copies with shuffled ids, connectivity, and a
mapping's non-dummy pairs and subgraph distance."""

from __future__ import annotations

import random
from typing import Sequence

from repro.exceptions import GraphError
from repro.graphs.closure import WILDCARD
from repro.graphs.graph import Graph
from repro.graphs.mapping import DUMMY_SET, GraphMapping, uniform_set_distance


def labels_match(s1: frozenset, s2: frozenset) -> bool:
    """Can two label sets agree on a value, honoring wildcards?

    True when the sets intersect, or when either side contains
    :data:`WILDCARD` (which matches any real label).  This is the
    compatibility test of the set-based references (level-0 pseudo
    compatibility, Ullmann domains, edge checks); the kernels run its
    bitmask form, ``repro.graphs.labelspace.masks_match``.
    """
    if s1 & s2:
        return True
    return WILDCARD in s1 or WILDCARD in s2


def relabeled(graph: Graph, permutation: Sequence[int]) -> Graph:
    """A copy with vertex ``i`` renamed to ``permutation[i]``.

    ``permutation`` must be a permutation of ``0..n-1``.
    """
    n = graph.num_vertices
    if sorted(permutation) != list(range(n)):
        raise GraphError("relabeled() requires a permutation of all vertices")
    labels = [None] * n
    for v in graph.vertices():
        labels[permutation[v]] = graph.label(v)
    g = Graph(labels)
    for u, v, label in graph.edges():
        g.add_edge(permutation[u], permutation[v], label)
    g.name = graph.name
    return g


def vertex_permuted(graph: Graph, rng: random.Random) -> Graph:
    """A random isomorphic copy of ``graph`` (vertex ids shuffled)."""
    perm = list(graph.vertices())
    rng.shuffle(perm)
    return relabeled(graph, perm)


def is_connected(graph: Graph) -> bool:
    """True iff the graph is connected (the empty graph is connected)."""
    n = graph.num_vertices
    if n <= 1:
        return True
    seen = [False] * n
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        v = stack.pop()
        for w in graph.neighbors(v):
            if not seen[w]:
                seen[w] = True
                count += 1
                stack.append(w)
    return count == n


def matched_pairs(mapping: GraphMapping) -> dict[int, int]:
    """The non-dummy part of the mapping as a dict ``u -> v``."""
    return {u: v for u, v in mapping.pairs
            if u is not None and v is not None}


def subgraph_cost(mapping: GraphMapping) -> float:
    """Subgraph distance under a mapping (Def. 5 / Eqn. 4).

    Counts only the first graph's real vertices and edges — extra
    structure in ``g2`` is free.
    """
    g1, g2 = mapping.g1, mapping.g2
    cost = 0.0
    for u, v in mapping.pairs:
        if u is None:
            continue
        s2 = g2.label_set(v) if v is not None else DUMMY_SET
        cost += uniform_set_distance(g1.label_set(u), s2)
    for a, b, _ in g1.edges():
        va, vb = mapping.image(a), mapping.image(b)
        if va is not None and vb is not None and g2.has_edge(va, vb):
            s2 = g2.edge_label_set(va, vb)
        else:
            s2 = DUMMY_SET
        cost += uniform_set_distance(g1.edge_label_set(a, b), s2)
    return cost
