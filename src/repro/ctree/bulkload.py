"""C-tree construction by hierarchical clustering (Section 5.5).

Sequential insertion is order-sensitive and split-heavy; the paper instead
builds the tree bottom-up with a clustering pass per level.  The paper cites
generic hierarchical clustering [21]; this module implements a greedy
leader-based agglomerative scheme:

1. items (graphs, then nodes) are scanned in a shuffled order and greedily
   gathered around leaders by a cheap similarity (the Eqn. 7 upper bound,
   normalized — no graph mappings needed);
2. the leader groups define an ordering in which similar items are adjacent;
   the ordering is chunked into nodes whose fanouts always satisfy
   ``min_fanout <= fanout <= max_fanout``;
3. each node folds its closure with the tree's mapper, and the procedure
   recurses on the nodes until one root remains.

Construction therefore costs O(n * clusters) mapping-free comparisons plus
O(n) mapping-based closure folds per level — the behavior Fig. 6(b) reports.
"""

from __future__ import annotations

import math
import random
from typing import Iterable, Optional, Sequence

from repro.graphs.graph import Graph
from repro.matching.bounds import norm, sim_upper_bound
from repro.ctree.node import Child, CTreeNode, LeafEntry
from repro.ctree.tree import CTree


def bulk_load(
    graphs: Iterable[Graph],
    min_fanout: int = 20,
    max_fanout: Optional[int] = None,
    mapping_method: str = "nbm",
    insert_policy: str = "min_volume",
    split_policy: str = "linear",
    seed: int = 0,
) -> CTree:
    """Build a C-tree over ``graphs`` by hierarchical clustering.

    Accepts the same configuration as :class:`~repro.ctree.tree.CTree`.
    Graph ids are assigned sequentially in input order.
    """
    tree = CTree(
        min_fanout=min_fanout,
        max_fanout=max_fanout,
        mapping_method=mapping_method,
        insert_policy=insert_policy,
        split_policy=split_policy,
    )
    store = tree.store
    entries: list[Child] = [store.alloc_graph(i, graph)
                            for i, graph in enumerate(graphs)]
    if not entries:
        return tree

    rng = random.Random(seed)
    level: list[Child] = entries
    is_leaf = True
    height = 0  # inner levels built so far
    while is_leaf or len(level) > 1:
        if len(level) <= tree.max_fanout:
            level = [_make_node(tree, level, is_leaf)]
        else:
            order = _similarity_order(level, tree, rng)
            chunks = _chunk(order, tree.min_fanout, tree.max_fanout)
            level = [_make_node(tree, chunk, is_leaf) for chunk in chunks]
        height += not is_leaf
        is_leaf = False
    store.free_node(store.root, store.root)  # the empty leaf it replaces
    store.set_root(level[0], height)
    store.meta.update(graph_count=len(entries), next_id=len(entries))
    return tree


def _make_node(tree: CTree, children: Sequence[Child], is_leaf: bool) -> CTreeNode:
    node = CTreeNode(is_leaf=is_leaf)
    for child in children:
        node.add_child(child)
    node.rebuild_summary(tree.mapper)
    return tree.store.alloc_node(node)


def _similarity_order(
    items: Sequence[Child], tree: CTree, rng: random.Random
) -> list[Child]:
    """Order items so that similar ones are adjacent, via greedy leader
    clustering on the normalized Eqn. 7 similarity bound."""
    target = (tree.min_fanout + tree.max_fanout) // 2
    order = list(range(len(items)))
    rng.shuffle(order)

    # Eqn. (7) reads a graph as its singleton closure; a graph keeps the memo.
    summaries = [item.graph if isinstance(item, LeafEntry) else item.closure
                 for item in items]
    norms = [max(norm(s), 1.0) for s in summaries]

    leaders: list[int] = []
    groups: list[list[int]] = []
    for i in order:
        best_group, best_score = -1, -1.0
        for gi, leader in enumerate(leaders):
            if len(groups[gi]) >= target:
                continue
            score = sim_upper_bound(summaries[i], summaries[leader]) / max(
                norms[i], norms[leader]
            )
            if score > best_score:
                best_group, best_score = gi, score
        if best_group < 0 or best_score < 0.5:
            leaders.append(i)
            groups.append([i])
        else:
            groups[best_group].append(i)
    return [items[i] for group in groups for i in group]


def _chunk(
    ordered: Sequence[Child], min_size: int, max_size: int
) -> list[list[Child]]:
    """Cut an ordered sequence into consecutive chunks with sizes in
    ``[min_size, max_size]``.

    Feasible whenever ``len(ordered) >= min_size`` and
    ``max_size + 1 >= 2 * min_size`` (the C-tree configuration invariant).
    """
    n = len(ordered)
    lo = math.ceil(n / max_size)  # fewest pieces that respect the cap
    hi = max(1, n // min_size)    # most pieces that respect the floor
    pieces = max(lo, min(hi, round(n / ((min_size + max_size) / 2)) or 1))
    pieces = max(1, min(pieces, hi))
    base, extra = divmod(n, pieces)
    chunks: list[list[Child]] = []
    start = 0
    for i in range(pieces):
        size = base + (1 if i < extra else 0)
        chunks.append(list(ordered[start:start + size]))
        start += size
    return chunks
