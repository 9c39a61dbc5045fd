"""The generic loop of Neighbor Biased Mapping (Alg. 1) over label sets.

:func:`nbm_mapping_reference` takes any ``neighbor_bonus`` and
``neighborhood_init``; ``repro.matching.nbm.NbmScorer`` must equal it bit
for bit at the product's constants (``tests/test_nbm.py``).
"""

from __future__ import annotations

import heapq

from repro.graphs.closure import GraphLike
from repro.graphs.mapping import GraphMapping, uniform_set_similarity


def nbm_mapping_reference(
    g1: GraphLike, g2: GraphLike,
    neighbor_bonus: float = 1.0, neighborhood_init: float = 0.5,
) -> GraphMapping:
    """:func:`nbm_mapping` over label sets: the path of other neighbour
    bonuses, and the oracle the kernel is tested against.

    ``neighbor_bonus`` is the weight added to a neighbor pair ``(u', v')``
    for each matched pair ``(u, v)`` adjacent to it, scaled by the
    similarity of the connecting edges."""
    n1, n2 = g1.num_vertices, g2.num_vertices
    if n1 == 0 or n2 == 0:
        return GraphMapping.from_partial(g1, g2, {})

    sets1 = [g1.label_set(u) for u in range(n1)]
    sets2 = [g2.label_set(v) for v in range(n2)]

    # Weight matrix W[u][v]; mutated as matches accumulate.
    weight = [[uniform_set_similarity(s1, s2) for s2 in sets2]
              for s1 in sets1]
    if neighborhood_init > 0.0:
        _add_neighborhood_weights(g1, g2, weight, neighborhood_init)

    matched1: list[bool] = [False] * n1
    matched2: list[bool] = [False] * n2
    mate: list[int] = [0] * n1   # current best candidate in g2 for each u
    best_wt: list[float] = [0.0] * n1

    # Min-heap over (-weight, u, v): the ids break every tie, so the result
    # depends on neither push order nor adjacency order.
    heap: list[tuple[float, int, int]] = []

    def best_unmatched_candidate(u: int) -> int:
        """The unmatched v maximizing W[u][v]; -1 if none remain."""
        row = weight[u]
        best_v, best = -1, -1.0
        for v in range(n2):
            if not matched2[v] and row[v] > best:
                best_v, best = v, row[v]
        return best_v

    for u in range(n1):
        v = best_unmatched_candidate(u)
        mate[u] = v
        best_wt[u] = weight[u][v]
        heapq.heappush(heap, (-best_wt[u], u, v))

    result: dict[int, int] = {}
    while heap:
        neg_w, u, v = heapq.heappop(heap)
        if matched1[u]:
            continue
        if matched2[v] or -neg_w < best_wt[u]:
            # Stale entry: v was taken, or u's weight has been boosted since.
            v = best_unmatched_candidate(u)
            if v < 0:
                continue  # g2 exhausted; u stays unmatched (dummy)
            mate[u] = v
            best_wt[u] = weight[u][v]
            heapq.heappush(heap, (-best_wt[u], u, v))
            continue

        matched1[u] = True
        matched2[v] = True
        result[u] = v

        # Boost unmatched neighbor pairs (the "neighbor bias").
        for u2 in g1.neighbors(u):
            if matched1[u2]:
                continue
            e1 = g1.edge_label_set(u, u2)
            row = weight[u2]
            improved = False
            for v2 in g2.neighbors(v):
                if matched2[v2]:
                    continue
                bonus = neighbor_bonus * uniform_set_similarity(
                    e1, g2.edge_label_set(v, v2))
                if bonus <= 0.0:
                    continue
                row[v2] += bonus
                w = row[v2]
                # The lowest id among equally boosted candidates.
                if w > best_wt[u2] or (improved and w == best_wt[u2]
                                       and v2 < mate[u2]):
                    mate[u2] = v2
                    best_wt[u2] = w
                    improved = True
            if improved:
                heapq.heappush(heap, (-best_wt[u2], u2, mate[u2]))

    return GraphMapping.from_partial(g1, g2, result)


def _add_neighborhood_weights(
    g1: GraphLike, g2: GraphLike, weight: list[list[float]], scale: float
) -> None:
    """Add ``scale * |N_labels(u) ∩ N_labels(v)| / max(deg)`` to each pair
    with positive attribute similarity.

    Neighbor labels are counted as multisets (for closures, a neighbor
    counts toward each label in its set), so the term is 1.0 exactly when
    the two neighborhoods can agree label-for-label — a cheap O(d) proxy
    for structural agreement that breaks ties among same-label vertices.
    """
    profiles1 = [_neighbor_label_counts(g1, u) for u in range(g1.num_vertices)]
    profiles2 = [_neighbor_label_counts(g2, v) for v in range(g2.num_vertices)]
    for u, row in enumerate(weight):
        p1 = profiles1[u]
        d1 = g1.degree(u)
        for v in range(len(row)):
            if row[v] <= 0.0:
                continue
            d = max(d1, g2.degree(v), 1)
            p2 = profiles2[v]
            common = 0
            for label, count in p1.items():
                other = p2.get(label)
                if other:
                    common += count if count < other else other
            row[v] += scale * common / d


def _neighbor_label_counts(g: GraphLike, u: int) -> dict:
    counts: dict = {}
    for w in g.neighbors(u):
        for label in g.label_set(w):
            counts[label] = counts.get(label, 0) + 1
    return counts
