"""Similarity queries on a C-tree (Section 7, Algorithm 4).

**K-NN** uses incremental ranking [23, 24]: a priority queue holds tree
nodes keyed by the Eqn. (7) upper bound of their closure's similarity to the
query, and database graphs keyed by their (approximate, NBM-computed)
similarity.  Because a node's bound dominates the similarity of anything
below it, popping in decreasing key order reports neighbors in
(approximately) best-first order.  A second priority queue of the best k
graphs seen so far supplies a lower-bound threshold that discards children
early.

**Range queries** return all graphs within edit distance ``r`` of the
query, pruning nodes whose closure admits a distance lower bound above
``r`` (a closure-aware version of the Eqn. 7 bound: members must pay at
least one unit for every query vertex/edge the closure cannot match, and
for every required closure element beyond the query's size).
"""

from __future__ import annotations

import heapq
import itertools
import time
from typing import Optional

from repro.graphs.closure import GraphClosure
from repro.graphs.graph import Graph
from repro.matching.bounds import SimilarityQueryContext
from repro.matching.edit_distance import count_mapping
from repro.matching.nbm import NbmScorer
from repro.obs import trace
from repro.ctree.node import CTreeNode
from repro.ctree.stats import KnnStats
from repro.ctree.tree import CTreeCore, tree_share


def knn_query(
    tree: CTreeCore,
    query: Graph,
    k: int,
    sims: Optional[dict[int, float]] = None,
    bounds: Optional[dict[tuple, float]] = None,
) -> tuple[list[tuple[int, float]], KnnStats]:
    """The K nearest (most similar) graphs to ``query`` (Algorithm 4).

    Returns ``([(graph_id, similarity)...], stats)`` in the total order
    ``(-similarity, graph_id)`` (length ``min(k, |D|)``).  Similarities
    are computed under the NBM mapping (Alg. 1), exactly as in the paper.
    ``tree`` is any C-tree over a node store; on a disk index the stats
    additionally carry the page I/O the query caused.

    The heap loop keeps running through graphs tied with the kth-best
    before cutting to ``k``, so the answer is a function of the database
    alone, ties included: it *is* :func:`linear_scan_knn`'s list — the
    order :func:`~repro.ctree.shards.merge_knn` needs to merge per-shard
    top-k lists into the whole database's.

    ``sims`` memoises similarities by graph id, and ``bounds`` the Eqn.
    (7) bounds of nodes and leaf entries by their path of child
    positions from the root: a hit skips the load and the computation,
    a miss computes the value and stores it.  Alg. 4 reads only bounds
    and similarities, so the answer and every counter are the same
    whatever the memos hold — the batch engine replays the query over
    what its :func:`knn_share` runs computed
    (:mod:`repro.ctree.parallel`).
    """
    with trace.span("ctree.knn_query", k=k,
                    database_size=len(tree)) as root_span, \
            tree.store.metered(KnnStats, len(tree), root_span) as stats:
        results: list[tuple[int, float]] = []
        start = time.perf_counter()
        if k > 0 and len(tree):
            results = _knn_search(tree.store, query, k, stats,
                                  sims=sims, bounds=bounds)
            stats.seconds = time.perf_counter() - start
        root_span.set(results=len(results))
    stats.publish()
    return (results, stats)


def _knn_search(
    store,
    query: Graph,
    k: int,
    stats: KnnStats,
    sims: Optional[dict[int, float]] = None,
    bounds: Optional[dict[tuple, float]] = None,
    skips: frozenset = frozenset(),
) -> list[tuple[int, float]]:
    """The incremental-ranking heap loop of Algorithm 4.

    See :func:`knn_query` for the tie order and the ``sims`` / ``bounds``
    memos, and :func:`~repro.ctree.tree.tree_share` for ``skips``; the
    defaults are the paper-faithful behavior.
    """
    if sims is None:
        sims = {}
    if bounds is None:
        bounds = {}
    counter = itertools.count()
    # The query's side of every Eqn. (7) bound along the traversal, and
    # of every Alg. 1 pair it scores, extracted once.
    sqc = SimilarityQueryContext(query)
    scorer = NbmScorer(query)
    # Max-heap via negated keys.  Entries: (-key, tiebreak, kind, payload)
    # with kind one of _NODE (key = closure similarity bound, payload = the
    # loaded node and its path), _GRAPH_BOUND (key = Eqn. 7 bound read off
    # the leaf entry's label summary, payload = the entry: neither loaded
    # nor scored yet) or _GRAPH_EXACT (key = heuristic similarity).  Deferring
    # the load and the expensive exact similarity until a graph's *bound*
    # reaches the top of the queue is the optimal multi-step scheme of
    # [24] the paper builds on.  An entry is scored as its Alg. 1
    # context: a disk record builds no graph.
    _NODE, _GRAPH_BOUND, _GRAPH_EXACT = 0, 1, 2
    heap: list[tuple[float, int, int, object]] = []
    heapq.heappush(heap, (float("-inf"), next(counter), _NODE,
                          (store.load_node(store.root), ())))

    # Min-heap of the current k best exact similarities (top = lower bound).
    best_k: list[float] = []
    lower_bound = float("-inf")

    def note_similarity(sim: float) -> None:
        nonlocal lower_bound
        if len(best_k) < k:
            heapq.heappush(best_k, sim)
        else:
            heapq.heappushpop(best_k, sim)
        if len(best_k) >= k:
            lower_bound = best_k[0]

    results: list[tuple[int, float]] = []
    while heap:
        # Boundary ties are drained: the heap pops in decreasing key
        # order, so the first key strictly below the kth-best similarity
        # ends the query.
        if len(results) >= k and -heap[0][0] < results[k - 1][1]:
            break
        neg_key, _, kind, payload = heapq.heappop(heap)
        if -neg_key < lower_bound:
            stats.pruned_by_bound += 1
            continue
        if kind == _GRAPH_EXACT:
            results.append(payload)  # type: ignore[arg-type]
            stats.results += 1
        elif kind == _GRAPH_BOUND:
            graph_id = payload.graph_id  # type: ignore[attr-defined]
            stats.graphs_scored += 1
            sim = sims.get(graph_id)
            if sim is None:
                with trace.span("ctree.knn.score", graph_id=graph_id):
                    sim = scorer.similarity(
                        store.load_nbm_context(payload))
                    count_mapping()
                sims[graph_id] = sim
            note_similarity(sim)
            if sim >= lower_bound:
                heapq.heappush(
                    heap, (-sim, next(counter), _GRAPH_EXACT, (graph_id, sim))
                )
            else:
                stats.pruned_by_bound += 1
        else:
            node, path = payload
            assert isinstance(node, CTreeNode)
            stats.nodes_expanded += 1
            with trace.span("ctree.knn.expand") as sp:
                for i, ref in enumerate(node.children):
                    key = path + (i,)
                    if key in skips:
                        continue
                    stats.children_scored += 1
                    child_bound = bounds.get(key)
                    if node.is_leaf:
                        if child_bound is None:
                            child_bound = bounds[key] = sqc.sim_upper_bound(
                                store.graph_summary(ref))
                        item = (_GRAPH_BOUND, ref)
                    else:
                        child = store.load_node(ref)
                        if child_bound is None:
                            child_bound = bounds[key] = sqc.sim_upper_bound(
                                child.closure)
                        item = (_NODE, (child, key))
                    if child_bound < lower_bound:
                        stats.pruned_by_bound += 1
                        continue
                    heapq.heappush(
                        heap, (-child_bound, next(counter), *item))
                sp.set(fanout=len(node.children))

    # Total order: similarity desc, graph id asc — independent of
    # traversal order, so every shard (and the linear scan) resolves
    # boundary ties identically.
    results.sort(key=lambda t: (-t[1], t[0]))
    del results[k:]
    stats.results = len(results)
    return results


def knn_share(
    tree: CTreeCore,
    query: Graph,
    k: int,
    share: int,
    shares: int,
) -> tuple[dict[int, float], dict[tuple, float]]:
    """Score one :func:`~repro.ctree.tree.tree_share` of a K-NN query:
    Alg. 4 (boundary ties drained) confined to the share's
    subtrees.  Returns the ``sims`` and ``bounds`` memos of
    :func:`knn_query` it filled — every graph it scored, every bound it
    computed — and publishes no ``ctree.knn.*`` stats: the replay over
    the merged memos does.

    A share's kth-best is never above the whole query's, so the shares
    together score every graph the serial run scores (given that a
    closure's bound dominates its members'); a graph they missed is
    simply scored by the replay.
    """
    sims: dict[int, float] = {}
    bounds: dict[tuple, float] = {}
    if k > 0 and len(tree):
        skips = tree_share(tree.store, share, shares) or frozenset()
        _knn_search(tree.store, query, k, KnnStats(), sims=sims,
                    bounds=bounds, skips=skips)
    return sims, bounds


def range_query(
    tree: CTreeCore,
    query: Graph,
    radius: float,
) -> tuple[list[tuple[int, float]], KnnStats]:
    """All graphs within (approximate) edit distance ``radius`` of ``query``.

    Nodes are pruned when :func:`closure_distance_lower_bound` exceeds the
    radius, a leaf entry is skipped unloaded when the Eqn. (7) distance
    bound of its label summary does; both bounds are sound, so no true
    answer is pruned — but since graph distances themselves are heuristic
    upper bounds, borderline graphs may be missed, mirroring the paper's
    approximate semantics.
    """
    store = tree.store
    results: list[tuple[int, float]] = []
    start = time.perf_counter()
    with trace.span("ctree.range_query", radius=radius,
                    database_size=len(tree)) as root_span, \
            store.metered(KnnStats, len(tree), root_span) as stats:
        sqc = SimilarityQueryContext(query)
        scorer = NbmScorer(query)
        stack = [store.load_node(store.root)] if len(tree) else []
        while stack:
            node = stack.pop()
            stats.nodes_expanded += 1
            for ref in node.children:
                stats.children_scored += 1
                if node.is_leaf:
                    if sqc.distance_lower_bound(store.graph_summary(ref)) \
                            > radius:
                        stats.pruned_by_bound += 1
                        continue
                    stats.graphs_scored += 1
                    dist = scorer.score(store.load_nbm_context(ref))[1]
                    count_mapping()
                    if dist <= radius:
                        results.append((ref.graph_id, dist))
                        stats.results += 1
                else:
                    child = store.load_node(ref)
                    if sqc.closure_distance_lower_bound(child.closure) \
                            > radius:
                        stats.pruned_by_bound += 1
                        continue
                    stack.append(child)
        root_span.set(results=len(results))

    results.sort(key=lambda t: (t[1], t[0]))
    stats.seconds = time.perf_counter() - start
    stats.publish()
    return (results, stats)


def closure_distance_lower_bound(query: Graph, closure: GraphClosure) -> float:
    """A lower bound on ``d(query, H)`` for every graph ``H`` contained in
    ``closure``.

    Vertex part: any mapping pays >= 1 for each of the
    ``max(|V_q|, minV(C))`` vertices of the larger side that is not in a
    zero-cost pair, and zero-cost pairs number at most ``Sim(V_q, V_C)``
    (which dominates ``Sim(V_q, V_H)``).  Edge part analogous.

    One-shot convenience wrapper; traversals build one
    :class:`~repro.matching.bounds.SimilarityQueryContext` per query
    instead.
    """
    return SimilarityQueryContext(query).closure_distance_lower_bound(closure)


def linear_scan_knn(
    graphs: dict[int, Graph],
    query: Graph,
    k: int,
) -> list[tuple[int, float]]:
    """Reference K-NN: score every database graph, in the order
    ``(-similarity, graph_id)``.  Ground truth for the index:
    :func:`knn_query` returns this list exactly, ties included."""
    scorer = NbmScorer(query)
    scored = []
    for gid, g in graphs.items():
        scored.append((gid, scorer.similarity(g)))
        count_mapping()
    scored.sort(key=lambda t: (-t[1], t[0]))
    return scored[:k]
