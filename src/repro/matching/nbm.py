"""Neighbor Biased Mapping — Algorithm 1 (Section 4.3).

NBM builds a vertex mapping greedily from a priority queue of candidate
pairs.  Whenever a pair ``(u, v)`` is matched, the weights of all unmatched
neighbor pairs ``(u', v')`` with ``u' ∈ N(u), v' ∈ N(v)`` are boosted, which
biases the matching toward extending already-discovered common substructure —
the property that makes NBM produce tight closures and good edit-distance
estimates (Fig. 10).

Complexity: O(n^2) initialization plus O(n · d^2 · log n) queue work, as
analyzed in the paper.

The paper fixes the loop by weights and neighbours alone; every tie is
broken here on vertex ids — the heap pops the lowest ``(-weight, u, v)``
and a vertex's best candidate is the lowest ``v`` among equal weights — so
a pair's mapping is a function of the two labelled graphs, whatever order
their edges were added or stored in.

Under the paper's uniform measures, the only ones, the algorithm runs
as a compiled kernel, :class:`NbmScorer`, over the contexts
memoized on graphs and closures (:func:`~repro.graphs.labelspace.nbm_context`)
and reads both sides through them alone — labels, profiles, edge masks and
adjacency — so a disk K-NN or range query scores a graph record compiled
straight into its context (``repro.ctree.store.decode_nbm_context``) and
builds no graph.  A traversal that scores one query against many graphs
builds one scorer, :func:`nbm_mapping` / :func:`nbm_score` use one once.
The generic loop over label sets, the oracle the kernel must equal bit
for bit, lives with the tests (``tests/oracles/nbm.py``).
"""

from __future__ import annotations

import heapq
from operator import and_

from repro.graphs.closure import GraphLike
from repro.graphs.labelspace import (
    EPSILON_BIT,
    TargetContext,
    global_labelspace,
    nbm_context,
)
from repro.graphs.mapping import GraphMapping

#: Weight of the neighbourhood term in the *initial* similarity matrix.
#: The paper computes initial weights from "the similarity of their
#: attributes as well as their neighbors"; on label-sparse graphs (e.g.
#: all-carbon molecules) the attribute term alone cannot distinguish
#: vertices and the first greedy anchor lands arbitrarily, so the initial
#: weight adds this times the fractional agreement of the two vertices'
#: neighbour-label multisets.
NEIGHBORHOOD_INIT = 0.5


def nbm_mapping(g1: GraphLike, g2: GraphLike) -> GraphMapping:
    """Compute a graph mapping with Neighbor Biased Mapping (Alg. 1) under
    the paper's uniform measures.

    Parameters
    ----------
    g1, g2:
        Graphs or closures.  Every vertex of ``g1`` is matched if ``g2`` has
        spare vertices (unmatched leftovers pair with dummies).

    Returns
    -------
    A :class:`~repro.graphs.mapping.GraphMapping` covering both graphs.
    """
    return NbmScorer(g1).mapping(g2)


def nbm_score(g1: GraphLike, g2: GraphLike) -> tuple[float, float]:
    """``(similarity, edit cost)`` of ``nbm_mapping(g1, g2)`` under the
    uniform measures, read off the match without building the mapping."""
    return NbmScorer(g1).score(g2)


class _Columns(dict):
    """The initial weight matrix of one query, by column: ``column(key)``
    weighs a target vertex ``(mask, profile, degree)`` against every
    distinct query key, and ``self[k]`` is the column of the interned
    ``LabelSpace.vertex_key`` k, filled per miss — a query meets a few
    hundred distinct keys over a traversal."""

    __slots__ = ("keys", "targets")

    def __init__(self, keys: list[tuple[int, int, int]],
                 targets: list[tuple[int, int, int]]) -> None:
        self.keys = keys
        self.targets = targets

    def column(self, key: tuple[int, int, int]) -> list[float]:
        """0 unless the labels are compatible."""
        m2, p2, d2 = key
        scale = NEIGHBORHOOD_INIT
        return [1.0 + scale * (p1 & p2).bit_count() / (
                    d1 if d1 > d2 else d2 or 1) if m1 & m2 else 0.0
                for m1, p1, d1 in self.keys]

    def __missing__(self, k: int) -> list[float]:
        col = self[k] = self.column(self.targets[k])
        return col


class NbmScorer:
    """Alg. 1 under the uniform measures from one first graph, ``query``,
    to many seconds — the compiled kernel behind :func:`nbm_mapping`.

    Two label sets are similar iff their masks share a bit, so an initial
    weight is ``1 + init·common/d`` in one step (the profile overlap
    ``common`` a popcount) and a boost is ``+1`` per mask-compatible edge
    pair.  What depends on the query alone is kept: its distinct vertex
    keys ``(mask, profile, degree)``, and the weights of those against
    every interned vertex key a database graph has brought so far — a
    pure memo, so any number of targets in any order score as one would.
    A target is a graph, a closure or its compiled context; only
    :meth:`mapping` needs it as a graph.  Ties are broken on vertex ids,
    as in the reference, so both pop the same sequence of heap entries
    whatever order either side's adjacency dicts are in.
    """

    __slots__ = ("query", "_ctx", "_row_of", "_columns", "_elements")

    def __init__(self, query: GraphLike) -> None:
        self.query = query
        self._ctx = None
        self._compiled()

    def _compiled(self):
        """The query's context; what is derived from it is rebuilt when
        the query was mutated or the label space replaced."""
        c1 = nbm_context(self.query)
        if c1 is not self._ctx:
            self._ctx = c1
            # Vertices alike in label, profile and degree share a row.
            index: dict[tuple, int] = {}
            self._row_of = [
                index.setdefault(key, len(index))
                for key in zip(c1.vmasks, c1.profiles, c1.degrees)]
            self._columns = _Columns(list(index),
                                     global_labelspace().vertex_keys)
            self._elements = None
        return c1

    def match(self, target: GraphLike | TargetContext) -> dict[int, int]:
        """The pairs Alg. 1 matches, ``u -> v``."""
        c1, c2 = self._compiled(), nbm_context(target)
        n1, n2 = c1.n, c2.n
        if n1 == 0 or n2 == 0:
            return {}
        # The weight matrix W[u][v] starts from one row per distinct query
        # key; a closure's vertices hardly recur and are weighed afresh.
        if c2.vkeys is not None:
            columns = map(self._columns.__getitem__, c2.vkeys)
        else:
            columns = map(self._columns.column,
                          zip(c2.vmasks, c2.profiles, c2.degrees))
        rows = list(zip(*columns))
        bests = [max(row) for row in rows]
        firsts = [row.index(best) for row, best in zip(rows, bests)]
        row_of = self._row_of
        weight = [list(rows[r]) for r in row_of]
        best_wt = [bests[r] for r in row_of]

        matched1 = [False] * n1
        matched2 = [False] * n2
        # Min-heap over (-weight, u, v): the ids break every tie, so pop
        # order depends on neither heap layout nor push order.
        heap = [(-bests[r], u, firsts[r]) for u, r in enumerate(row_of)]
        heapq.heapify(heap)
        adj1, adj2 = c1.adj, c2.adj
        emask1, emask2 = c1.edge_masks, c2.edge_masks
        push, pop = heapq.heappush, heapq.heappop
        # The matched vs in match order; row u has struck out the first
        # struck[u] of them.  Only a re-key reads a taken column (a boost
        # skips matched vs), so a row is brought up to date just then.
        taken: list[int] = []
        struck = [0] * n1
        full = min(n1, n2)

        result: dict[int, int] = {}
        while heap:
            neg_w, u, v = pop(heap)
            if matched1[u]:
                continue
            if matched2[v] or -neg_w < best_wt[u]:
                # Stale entry: v was taken, or u's weight has been boosted
                # since.  Re-key u on its best unmatched candidate (the
                # lowest id of equals).
                row = weight[u]
                for v2 in taken[struck[u]:]:
                    row[v2] = -1.0  # below every weight: out of the re-key
                struck[u] = len(taken)
                best = max(row)
                best_wt[u] = best
                push(heap, (-best, u, row.index(best)))
                continue

            matched1[u] = True
            matched2[v] = True
            result[u] = v
            if len(result) == full:
                # One side is used up: every later pop is a no-op, and
                # the unmatched vertices of the other pair with dummies.
                return result
            taken.append(v)

            # Boost unmatched neighbor pairs (the "neighbor bias").
            targets = [(v2, emask2[label]) for v2, label in adj2[v].items()
                       if not matched2[v2]]
            for u2, label in adj1[u].items():
                if matched1[u2]:
                    continue
                e1 = emask1[label]
                row = weight[u2]
                mate, best = -1, best_wt[u2]
                for v2, e2 in targets:
                    if e1 & e2:
                        w = row[v2] = row[v2] + 1.0
                        if w > best or w == best and v2 < mate:
                            mate, best = v2, w
                if mate >= 0:
                    best_wt[u2] = best
                    push(heap, (-best, u2, mate))
        return result

    def mapping(self, target: GraphLike) -> GraphMapping:
        """``nbm_mapping(query, target)``: the one reader that needs the
        target as a graph, not as its context."""
        return GraphMapping.from_partial(self.query, target,
                                         self.match(target))

    def _images(self, target: GraphLike | TargetContext
                ) -> tuple[list[int], list[int]]:
        """``(masks, images)``: the label mask of every vertex, then every
        edge, of the query, and beside each the mask of the element of
        ``target`` the match maps it onto (0: onto a dummy)."""
        match = self.match(target)
        c1, c2 = self._ctx, nbm_context(target)
        if self._elements is None:
            emask1 = c1.edge_masks
            edges = [(a, b, emask1[label])
                     for a, row in enumerate(c1.adj)
                     for b, label in row.items() if a < b]
            self._elements = (c1.vmasks + [e for _, _, e in edges], edges)
        masks, edges = self._elements
        get, vmasks2 = match.get, c2.vmasks
        images = [0 if v is None else vmasks2[v]
                  for v in map(get, range(c1.n))]
        adj2, emask2 = c2.adj, c2.edge_masks
        for a, b, _ in edges:
            va, vb = get(a), get(b)
            if va is None or vb is None:
                images.append(0)
            else:
                image = adj2[va]
                images.append(emask2[image[vb]] if vb in image else 0)
        return masks, images

    def similarity(self, target: GraphLike | TargetContext) -> float:
        """Similarity of ``nbm_mapping(query, target)`` (Def. 6): the
        elements mapped onto one whose labels they share."""
        return float(sum(map(bool, map(and_, *self._images(target)))))

    def score(self, target: GraphLike | TargetContext) -> tuple[float, float]:
        """``(similarity, edit cost)`` of ``nbm_mapping(query, target)``.
        A dummy is the label set {ε}, so an unmatched element is free
        exactly when its mask has the ε bit."""
        c2 = nbm_context(target)
        # Every element of the target starts out paired with a dummy ...
        similarity = 0
        cost = (sum(not m & EPSILON_BIT for m in c2.vmasks)
                + sum(n for m, n in c2.edge_counts if not m & EPSILON_BIT))
        for m1, m2 in zip(*self._images(target)):
            if m2 and not m2 & EPSILON_BIT:
                cost -= 1  # ... until a query element is mapped onto it.
            if m1 & m2:
                similarity += 1
            elif not m1 & (m2 or EPSILON_BIT):
                cost += 1
        return float(similarity), float(cost)


