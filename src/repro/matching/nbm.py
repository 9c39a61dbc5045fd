"""Neighbor Biased Mapping — Algorithm 1 (Section 4.3).

NBM builds a vertex mapping greedily from a priority queue of candidate
pairs.  Whenever a pair ``(u, v)`` is matched, the weights of all unmatched
neighbor pairs ``(u', v')`` with ``u' ∈ N(u), v' ∈ N(v)`` are boosted, which
biases the matching toward extending already-discovered common substructure —
the property that makes NBM produce tight closures and good edit-distance
estimates (Fig. 10).

Complexity: O(n^2) initialization plus O(n · d^2 · log n) queue work, as
analyzed in the paper.

Under the paper's uniform measures (every caller in the library) the
algorithm runs as a compiled kernel, :func:`nbm_match`, over the contexts
memoized on graphs and closures (:func:`~repro.graphs.labelspace.nbm_context`).
The generic loop, :func:`nbm_mapping_reference`, serves custom measures and
is the oracle the kernel must equal bit for bit (``tests/test_nbm.py``).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable

from repro.graphs.closure import GraphLike
from repro.graphs.labelspace import EPSILON_BIT, nbm_context
from repro.graphs.mapping import GraphMapping, uniform_set_similarity


def nbm_mapping(
    g1: GraphLike,
    g2: GraphLike,
    vertex_similarity: Callable = uniform_set_similarity,
    edge_similarity: Callable = uniform_set_similarity,
    neighbor_bonus: float = 1.0,
    neighborhood_init: float = 0.5,
) -> GraphMapping:
    """Compute a graph mapping with Neighbor Biased Mapping (Alg. 1).

    Parameters
    ----------
    g1, g2:
        Graphs or closures.  Every vertex of ``g1`` is matched if ``g2`` has
        spare vertices (unmatched leftovers pair with dummies).
    vertex_similarity, edge_similarity:
        Label-set similarity measures; defaults are the paper's uniform
        measure.
    neighbor_bonus:
        Weight added to a neighbor pair ``(u', v')`` for each matched pair
        ``(u, v)`` adjacent to it, scaled by the similarity of the connecting
        edges.
    neighborhood_init:
        Weight of the neighborhood term in the *initial* similarity matrix.
        The paper computes initial weights from "the similarity of their
        attributes as well as their neighbors"; on label-sparse graphs
        (e.g. all-carbon molecules) the attribute term alone cannot
        distinguish vertices and the first greedy anchor lands arbitrarily,
        so the initial weight adds ``neighborhood_init`` times the
        fractional agreement of the two vertices' neighbor-label multisets.
        Set to 0 for the plain attribute-only initialization.

    Returns
    -------
    A :class:`~repro.graphs.mapping.GraphMapping` covering both graphs.
    """
    uniform = uniform_set_similarity
    if vertex_similarity is edge_similarity is uniform and neighbor_bonus == 1.0:
        return GraphMapping.from_partial(
            g1, g2, nbm_match(g1, g2, neighborhood_init))
    return nbm_mapping_reference(g1, g2, vertex_similarity, edge_similarity,
                                 neighbor_bonus, neighborhood_init)


def nbm_match(
    g1: GraphLike, g2: GraphLike, neighborhood_init: float = 0.5
) -> dict[int, int]:
    """The pairs Alg. 1 matches under the uniform measures, ``u -> v``.

    Two label sets are similar iff their masks share a bit, so initial
    weights are filled per group of label-compatible targets (``1 +
    init·common/d`` in one step, the profile overlap ``common`` a
    popcount) and a boost is ``+1`` per mask-compatible edge pair.  The
    tiebreak counter is drawn exactly where the reference draws it, so
    both pop the same sequence of heap entries.
    """
    c1, c2 = nbm_context(g1), nbm_context(g2)
    n1, n2 = c1.n, c2.n
    if n1 == 0 or n2 == 0:
        return {}
    scale = max(neighborhood_init, 0.0)
    by_label: dict[int, list[tuple[int, int, int]]] = {}
    for v, (m, p, d) in enumerate(zip(c2.vmasks, c2.profiles, c2.degrees)):
        by_label.setdefault(m, []).append((v, p, d))

    # Weight matrix W[u][v]; vertices alike in label, profile and degree
    # start from the same row.
    rows: dict[tuple, list[float]] = {}
    weight: list[list[float]] = []
    for key in zip(c1.vmasks, c1.profiles, c1.degrees):
        row = rows.get(key)
        if row is None:
            m1, p1, d1 = key
            row = rows[key] = [0.0] * n2
            for m2, members in by_label.items():
                if m1 & m2:
                    for v, p2, d2 in members:
                        row[v] = 1.0 + scale * (p1 & p2).bit_count() / (
                            d1 if d1 > d2 else d2 or 1)
        weight.append(row[:])

    matched1 = [False] * n1
    matched2 = [False] * n2
    best_wt = [max(row) for row in weight]
    # Min-heap over (-weight, tiebreak, u, v): the tiebreak makes entries
    # totally ordered, so pop order does not depend on heap layout.
    heap = [(-best_wt[u], u, u, weight[u].index(best_wt[u]))
            for u in range(n1)]
    heapq.heapify(heap)
    counter = itertools.count(n1)
    adj1, adj2 = g1.adjacency, g2.adjacency
    emask1, emask2 = c1.edge_masks, c2.edge_masks
    push, pop = heapq.heappush, heapq.heappop

    result: dict[int, int] = {}
    while heap:
        neg_w, _, u, v = pop(heap)
        if matched1[u]:
            continue
        if matched2[v] or -neg_w < best_wt[u]:
            # Stale entry: v was taken, or u's weight has been boosted
            # since.  Re-key u on its best unmatched candidate (the first
            # of equals); with g2 exhausted u stays unmatched, a dummy.
            row = weight[u]
            best = max(row)
            if best >= 0.0:
                best_wt[u] = best
                push(heap, (-best, next(counter), u, row.index(best)))
            continue

        matched1[u] = True
        matched2[v] = True
        result[u] = v
        for row in weight:
            row[v] = -1.0  # below every weight: out of all later re-keys

        # Boost unmatched neighbor pairs (the "neighbor bias").
        targets = [(v2, emask2[label]) for v2, label in adj2(v).items()
                   if not matched2[v2]]
        for u2, label in adj1(u).items():
            if matched1[u2]:
                continue
            e1 = emask1[label]
            row = weight[u2]
            mate, best = -1, best_wt[u2]
            for v2, e2 in targets:
                if e1 & e2:
                    w = row[v2] = row[v2] + 1.0
                    if w > best:
                        mate, best = v2, w
            if mate >= 0:
                best_wt[u2] = best
                push(heap, (-best, next(counter), u2, mate))
    return result


def nbm_score(g1: GraphLike, g2: GraphLike) -> tuple[float, float]:
    """``(similarity, edit cost)`` of ``nbm_mapping(g1, g2)`` under the
    uniform measures, read off the match without building the mapping.
    A dummy is the label set {ε}, so an unmatched element is free exactly
    when its mask has the ε bit.
    """
    match = nbm_match(g1, g2)
    c1, c2 = nbm_context(g1), nbm_context(g2)
    adj1, adj2 = g1.adjacency, g2.adjacency
    emask1, emask2 = c1.edge_masks, c2.edge_masks
    # (mask, mask of its image or 0) for every vertex and edge of g1.
    pairs: list[tuple[int, int]] = []
    for a, m1 in enumerate(c1.vmasks):
        va = match.get(a)
        image = {} if va is None else adj2(va)
        pairs.append((m1, 0 if va is None else c2.vmasks[va]))
        for b, label in adj1(a).items():
            if a < b:
                vb = match.get(b)
                pairs.append((emask1[label],
                              emask2[image[vb]] if vb in image else 0))
    # Every element of g2 starts out paired with a dummy ...
    similarity = 0
    cost = (sum(not m & EPSILON_BIT for m in c2.vmasks)
            + sum(n for m, n in c2.edge_counts if not m & EPSILON_BIT))
    for m1, m2 in pairs:
        if m2 and not m2 & EPSILON_BIT:
            cost -= 1  # ... until an element of g1 is mapped onto it.
        if m1 & m2:
            similarity += 1
        elif not m1 & (m2 or EPSILON_BIT):
            cost += 1
    return float(similarity), float(cost)


def nbm_mapping_reference(
    g1: GraphLike, g2: GraphLike,
    vertex_similarity: Callable = uniform_set_similarity,
    edge_similarity: Callable = uniform_set_similarity,
    neighbor_bonus: float = 1.0, neighborhood_init: float = 0.5,
) -> GraphMapping:
    """:func:`nbm_mapping` over label sets and arbitrary measures: the
    path of custom measures, and the oracle the kernel is tested against."""
    n1, n2 = g1.num_vertices, g2.num_vertices
    if n1 == 0 or n2 == 0:
        return GraphMapping.from_partial(g1, g2, {})

    sets1 = [g1.label_set(u) for u in range(n1)]
    sets2 = [g2.label_set(v) for v in range(n2)]

    # Weight matrix W[u][v]; mutated as matches accumulate.
    weight = [[vertex_similarity(s1, s2) for s2 in sets2] for s1 in sets1]
    if neighborhood_init > 0.0:
        _add_neighborhood_weights(g1, g2, weight, neighborhood_init)

    matched1: list[bool] = [False] * n1
    matched2: list[bool] = [False] * n2
    mate: list[int] = [0] * n1   # current best candidate in g2 for each u
    best_wt: list[float] = [0.0] * n1

    # Min-heap over (-weight, tiebreak, u, v); the tiebreak keeps heap
    # comparisons away from graph objects and makes results deterministic.
    counter = itertools.count()
    heap: list[tuple[float, int, int, int]] = []

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
        heapq.heappush(heap, (-best_wt[u], next(counter), u, v))

    result: dict[int, int] = {}
    while heap:
        neg_w, _, u, v = heapq.heappop(heap)
        if matched1[u]:
            continue
        if matched2[v] or -neg_w < best_wt[u]:
            # Stale entry: v was taken, or u's weight has been boosted since.
            v = best_unmatched_candidate(u)
            if v < 0:
                continue  # g2 exhausted; u stays unmatched (dummy)
            mate[u] = v
            best_wt[u] = weight[u][v]
            heapq.heappush(heap, (-best_wt[u], next(counter), u, v))
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
                bonus = neighbor_bonus * edge_similarity(
                    e1, g2.edge_label_set(v, v2))
                if bonus <= 0.0:
                    continue
                row[v2] += bonus
                if row[v2] > best_wt[u2]:
                    mate[u2] = v2
                    best_wt[u2] = row[v2]
                    improved = True
            if improved:
                heapq.heappush(heap, (-best_wt[u2], next(counter), u2, mate[u2]))

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
