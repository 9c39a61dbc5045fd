"""The bipartite graph mapping method (Section 4.2).

A bipartite graph is built between the vertex sets of the two graphs and its
maximum matching defines the graph mapping.  Two variants, as in the paper:

- **unweighted**: vertices are connected when their labels are compatible;
  maximum-cardinality matching via Hopcroft-Karp [16].
- **weighted**: edge weights start from label similarity and are propagated
  to neighbors by matrix iteration until convergence (the Heymans-Singh
  scheme [19]); maximum-weight matching via the Hungarian algorithm [17, 18].

Unlike NBM, the weights are *fixed* during the final matching — there is no
bias toward neighbors of already-matched pairs, which is exactly the
weakness Fig. 10 demonstrates.
"""

from __future__ import annotations

from repro.graphs.closure import GraphLike
from repro.graphs.mapping import GraphMapping, uniform_set_similarity
from repro.matching.bipartite import hopcroft_karp
from repro.matching.hungarian import max_weight_assignment


def bipartite_mapping_unweighted(g1: GraphLike, g2: GraphLike) -> GraphMapping:
    """Graph mapping from the maximum-cardinality matching of the
    label-compatibility bipartite graph."""
    n1, n2 = g1.num_vertices, g2.num_vertices
    sets2 = [g2.label_set(v) for v in range(n2)]
    adjacency = []
    for u in range(n1):
        s1 = g1.label_set(u)
        adjacency.append([v for v in range(n2) if s1 & sets2[v]])
    matching = hopcroft_karp(n1, n2, adjacency)
    return GraphMapping.from_partial(g1, g2, matching)


def bipartite_mapping(
    g1: GraphLike,
    g2: GraphLike,
    propagation_rounds: int = 3,
    damping: float = 0.5,
    tolerance: float = 1e-6,
) -> GraphMapping:
    """Graph mapping from a maximum-weight matching over propagated weights.

    The weight matrix is iterated as

    ``W'[u][v] = base[u][v] + damping * neighbor_support(u, v) / max_deg``

    where ``neighbor_support`` greedily pairs the neighbors of ``u`` with the
    neighbors of ``v`` by current weight — a light-weight stand-in for the
    matrix-iteration similarity propagation of [19].  Iteration stops after
    ``propagation_rounds`` rounds or when the matrix moves less than
    ``tolerance``.
    """
    n1, n2 = g1.num_vertices, g2.num_vertices
    if n1 == 0 or n2 == 0:
        return GraphMapping.from_partial(g1, g2, {})

    sets1 = [g1.label_set(u) for u in range(n1)]
    sets2 = [g2.label_set(v) for v in range(n2)]
    base = [[uniform_set_similarity(s1, s2) for s2 in sets2]
            for s1 in sets1]
    weight = [row[:] for row in base]

    neighbors1 = [list(g1.neighbors(u)) for u in range(n1)]
    neighbors2 = [list(g2.neighbors(v)) for v in range(n2)]

    for _ in range(propagation_rounds):
        new_weight = [[0.0] * n2 for _ in range(n1)]
        delta = 0.0
        for u in range(n1):
            for v in range(n2):
                support = _neighbor_support(
                    g1, g2, u, v, neighbors1[u], neighbors2[v], weight,
                )
                denominator = max(len(neighbors1[u]), len(neighbors2[v]), 1)
                value = base[u][v] + damping * support / denominator
                new_weight[u][v] = value
                delta = max(delta, abs(value - weight[u][v]))
        weight = new_weight
        if delta < tolerance:
            break

    assignment, _ = max_weight_assignment(weight)
    return GraphMapping.from_partial(g1, g2, assignment)


def _neighbor_support(
    g1: GraphLike,
    g2: GraphLike,
    u: int,
    v: int,
    nbrs1: list[int],
    nbrs2: list[int],
    weight: list[list[float]],
) -> float:
    """Greedy one-to-one pairing of N(u) with N(v) by current weight,
    each pair gated by the similarity of the connecting edges."""
    if not nbrs1 or not nbrs2:
        return 0.0
    candidates = []
    for u2 in nbrs1:
        e1 = g1.edge_label_set(u, u2)
        row = weight[u2]
        for v2 in nbrs2:
            sim_e = uniform_set_similarity(e1, g2.edge_label_set(v, v2))
            if sim_e <= 0.0:
                continue
            score = row[v2] * sim_e
            if score > 0.0:
                candidates.append((score, u2, v2))
    candidates.sort(key=lambda t: (-t[0], t[1], t[2]))
    used1: set[int] = set()
    used2: set[int] = set()
    total = 0.0
    for score, u2, v2 in candidates:
        if u2 in used1 or v2 in used2:
            continue
        used1.add(u2)
        used2.add(v2)
        total += score
    return total
