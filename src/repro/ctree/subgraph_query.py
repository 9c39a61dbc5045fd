"""Subgraph query processing on a C-tree (Section 6.2, Algorithm 3).

Two phases, both on the bitset kernels of :mod:`repro.matching.kernels`
against one compiled query context:

1. **Search** — traverse the tree, screening every child with the cheap
   histogram dominance condition.  A child node that passes is expanded
   at once: its closure is never pseudo-iso tested, because that test
   (a necessary condition by Lemma 1, monotone up a lineage) can prune
   only subtrees whose graphs would all fail it anyway, and it cost
   more than it saved (docs/ALGORITHMS.md, Alg. 3).  A leaf's graphs
   are histogram-tested on the summaries the leaf holds for them, so a
   disk index reads only the graphs that pass — and reads each as its
   compiled target context (``store.load_context``), never as a graph —
   and then by pseudo subgraph isomorphism at the configured level.
   Surviving database graphs form the candidate set.
2. **Verification** — run Ullmann's exact algorithm on each candidate,
   seeded with the pseudo-compatibility masks computed during the search
   (the acceleration noted in the paper).

Returns the answer ids plus a :class:`~repro.ctree.stats.QueryStats` with
the counters the evaluation section reports.  Alg. 3 searches and
verifies each subtree on its own, so :func:`subgraph_share` runs it on
one of W disjoint tree shares and the batch engine
(:mod:`repro.ctree.parallel`) merges the shares' answers sorted by id;
:func:`subgraph_query` is the one-share case of the same descent, its
answers sorted.  With tracing enabled
(:mod:`repro.obs.trace`) a query emits a span tree: ``ctree.subgraph_query``
→ ``ctree.search`` → one ``ctree.expand`` span per node expansion (with
histogram/pseudo survivor counts attached) and ``ctree.verify`` wrapping
the Ullmann phase.
"""

from __future__ import annotations

from repro.graphs.graph import Graph
from repro.graphs.labelspace import TargetContext, label_context
from repro.matching import kernels
from repro.matching.kernels import QueryContext
from repro.matching.pseudo_iso import Level
from repro.matching.ullmann import subgraph_isomorphic
from repro.obs import trace
from repro.ctree.node import CTreeNode
from repro.ctree.stats import QueryStats
from repro.ctree.tree import CTreeCore, tree_share


def subgraph_query(
    tree: CTreeCore,
    query: Graph,
    level: Level = 1,
    verify: bool = True,
) -> tuple[list[int], QueryStats]:
    """Find the ids of all database graphs containing ``query``, sorted.

    ``tree`` is any C-tree over a node store — an in-memory
    :class:`~repro.ctree.tree.CTree` or a
    :class:`~repro.ctree.diskindex.DiskCTree`, whose stats additionally
    carry the page I/O the query caused.  ``level`` is the pseudo
    subgraph isomorphism level (1 or ``"max"`` in the paper's
    experiments).  With ``verify=False`` the candidate set is returned
    unverified (useful for measuring filter power alone).
    """
    answers, stats = subgraph_share(tree, query, level, verify)
    stats.publish()
    return sorted(answers), stats


def subgraph_share(
    tree: CTreeCore,
    query: Graph,
    level: Level = 1,
    verify: bool = True,
    share: int = 0,
    shares: int = 1,
) -> tuple[list[int], QueryStats]:
    """Alg. 3 on share ``share`` of ``shares``
    (:func:`~repro.ctree.tree.tree_share`, which must find a level at
    least ``2 * shares`` wide); :func:`subgraph_query` is the one-share
    case.  Returns the answer ids, unsorted.  The stats count
    only what the share owns — its subtrees and, for share 0, the nodes
    above the split level — so the shares' records summed are the
    serial one.  Nothing is published: the caller publishes once.
    """
    store = tree.store
    skips = tree_share(store, share, shares) if shares > 1 else frozenset()
    #: the split level: shares other than 0 count nothing above it
    top = len(next(iter(skips))) if share else 0
    qc = kernels.compile_query(query, level)
    #: (graph id, target context, pseudo-compatibility masks)
    candidates: list[tuple[int, TargetContext, list[int]]] = []
    with trace.span(
        "ctree.subgraph_query",
        query_vertices=query.num_vertices,
        level=str(level),
        database_size=len(tree),
    ) as root_span, store.metered(QueryStats, len(tree), root_span) as stats:
        with trace.timed("ctree.search") as search:
            if len(tree):
                _visit(store, store.load_node(store.root), (), qc,
                       candidates, stats, skips, top)
        stats.search_seconds = search.duration
        stats.candidates = len(candidates)
        root_span.set(candidates=stats.candidates)

        if not verify:
            answers = [graph_id for graph_id, _, _ in candidates]
        else:
            answers = []
            with trace.timed("ctree.verify",
                             candidates=len(candidates)) as verification:
                for graph_id, target, domains in candidates:
                    stats.isomorphism_tests += 1
                    # the descent's masks seed Ullmann as they are
                    if next(kernels.embeddings_masks(qc, target, domains, 1),
                            None) is not None:
                        answers.append(graph_id)
            stats.verify_seconds = verification.duration
            stats.answers = len(answers)
            root_span.set(answers=stats.answers)
    return (answers, stats)


def _visit(
    store,
    node: CTreeNode,
    path: tuple,
    qc: QueryContext,
    candidates: list,
    stats: QueryStats,
    skips: frozenset,
    top: int,
) -> None:
    """Expand the node at ``path``: screen every child by histogram.  A
    child node that passes is expanded at once — so only one
    root-to-leaf path of loaded nodes is alive at a time, and candidates
    come out in left-to-right leaf order.  A graph under a leaf is
    screened on the summary its entry holds, loaded as its target
    context only if it passes, and then tested by pseudo
    sub-isomorphism; a survivor becomes a candidate, carrying that
    context and its pseudo-compatibility domains into
    verification.  Children whose path is in ``skips`` are another
    share's; the stats count a node's expansion, and a child's
    screening, only at depth ``top`` or below."""
    depth = len(path)
    with trace.span("ctree.expand", depth=depth) as sp:
        tested = 0
        survivors_x = 0
        survivors_y = 0
        for i, ref in enumerate(node.children):
            if skips and path + (i,) in skips:
                continue
            tested += 1
            if not node.is_leaf:
                child = store.load_node(ref)
                if kernels.histogram_dominates(
                        label_context(child.closure), qc):
                    survivors_x += 1
                    survivors_y += 1
                    _visit(store, child, path + (i,), qc, candidates, stats,
                           skips, top)
                continue
            # The histogram beside the pointer: a graph it rejects is
            # never read.
            if not kernels.histogram_dominates(store.graph_summary(ref), qc):
                continue
            target = store.load_context(ref)
            survivors_x += 1
            stats.pseudo_tests += 1
            domains = kernels.pseudo_domain_masks(qc, target, qc.level)
            if not kernels.global_semi_perfect_masks(domains):
                continue
            survivors_y += 1
            candidates.append((ref.graph_id, target, domains))
        if depth + 1 >= top:
            nodes = int(depth >= top)
            stats.nodes_expanded += nodes
            stats.histogram_tests += tested
            stats.pseudo_survivors += survivors_y
            stats.record_level(depth, survivors_x, survivors_y, nodes=nodes,
                               tested=len(node.children) * nodes)
        sp.set(fanout=len(node.children), x=survivors_x, y=survivors_y)


def linear_scan_subgraph_query(
    graphs: dict[int, Graph] | list[Graph],
    query: Graph,
) -> list[int]:
    """Reference implementation: exact subgraph isomorphism against every
    database graph.  Used to validate index answers and as the no-index
    baseline in benchmarks."""
    if isinstance(graphs, dict):
        items = graphs.items()
    else:
        items = enumerate(graphs)
    return [gid for gid, g in items if subgraph_isomorphic(query, g)]
