"""The set-based reference of Ullmann's verifier [22].

:func:`compatibility_domains`, :func:`refine_domains` and
:func:`reference_embeddings` are the readable form of
``repro.matching.kernels.embeddings_masks``; the differential tests hold
the kernel to the identical sequence of embeddings.
:func:`graph_isomorphic` is exact graph isomorphism (Definition 1) over
the product verifier.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from repro.graphs.closure import GraphLike
from repro.graphs.graph import Graph
from repro.matching.ullmann import subgraph_isomorphic
from repro.obs.metrics import global_registry

from oracles.graphs import labels_match

#: the kernel's counters, ticked alike so a test can compare work
_C_CALLS = global_registry().counter("matching.ullmann.calls")
_C_SEARCH_NODES = global_registry().counter("matching.ullmann.search_nodes")


def compatibility_domains(query: GraphLike, target: GraphLike) -> list[set[int]]:
    """Initial candidate sets: label-compatible targets of sufficient degree."""
    domains: list[set[int]] = []
    target_info = [
        (target.label_set(v), target.degree(v)) for v in target.vertices()
    ]
    for u in query.vertices():
        s1 = query.label_set(u)
        d1 = query.degree(u)
        domains.append(
            {
                v
                for v, (s2, d2) in enumerate(target_info)
                if d1 <= d2 and labels_match(s1, s2)
            }
        )
    return domains


def refine_domains(
    query: GraphLike,
    target: GraphLike,
    domains: list[set[int]],
    max_rounds: Optional[int] = None,
) -> list[set[int]]:
    """Ullmann refinement: drop candidate ``v`` for ``u`` unless every query
    neighbor of ``u`` has a candidate among the compatible target neighbors
    of ``v``.  Iterates to a fixpoint (or ``max_rounds``).  Mutates and
    returns ``domains``."""
    rounds = 0
    changed = True
    while changed and (max_rounds is None or rounds < max_rounds):
        changed = False
        rounds += 1
        for u in query.vertices():
            dropped = []
            for v in domains[u]:
                if not _neighbors_supported(query, target, u, v, domains):
                    dropped.append(v)
            if dropped:
                domains[u].difference_update(dropped)
                changed = True
    return domains


def _neighbors_supported(
    query: GraphLike,
    target: GraphLike,
    u: int,
    v: int,
    domains: Sequence[set[int]],
) -> bool:
    for u2 in query.neighbors(u):
        edge1 = query.edge_label_set(u, u2)
        candidates = domains[u2]
        if not any(
            v2 in candidates and labels_match(edge1, target.edge_label_set(v, v2))
            for v2 in target.neighbors(v)
        ):
            return False
    return True


def reference_embeddings(
    query: GraphLike,
    target: GraphLike,
    domains: Optional[list[set[int]]] = None,
    limit: Optional[int] = None,
) -> Iterator[dict[int, int]]:
    """The set-based reference of :func:`enumerate_embeddings`: the same
    embeddings in the same order, ``domains`` (if given) as sets."""
    _C_CALLS.value += 1
    n1 = query.num_vertices
    if n1 == 0:
        yield {}
        return
    if n1 > target.num_vertices:
        return
    if domains is None:
        domains = compatibility_domains(query, target)
    else:
        domains = [set(d) for d in domains]
    refine_domains(query, target, domains)
    if any(not d for d in domains):
        return

    assignment: dict[int, int] = {}
    used: set[int] = set()
    found = nodes = 0

    def select_next() -> int:
        """Most-constrained unassigned query vertex, preferring vertices
        adjacent to the assigned frontier (keeps the search connected)."""
        best_u, best_key = -1, None
        for u in range(n1):
            if u in assignment:
                continue
            adjacent = any(w in assignment for w in query.neighbors(u))
            key = (not adjacent, len(domains[u]))
            if best_key is None or key < best_key:
                best_u, best_key = u, key
        return best_u

    def consistent(u: int, v: int) -> bool:
        for u2 in query.neighbors(u):
            v2 = assignment.get(u2)
            if v2 is None:
                continue
            if not target.has_edge(v, v2):
                return False
            if not labels_match(
                query.edge_label_set(u, u2), target.edge_label_set(v, v2)
            ):
                return False
        return True

    def search() -> Iterator[dict[int, int]]:
        nonlocal found, nodes
        nodes += 1
        if len(assignment) == n1:
            found += 1
            yield dict(assignment)
            return
        u = select_next()
        for v in sorted(domains[u]):
            if v in used or not consistent(u, v):
                continue
            assignment[u] = v
            used.add(v)
            yield from search()
            used.discard(v)
            del assignment[u]
            if limit is not None and found >= limit:
                return

    try:
        yield from search()
    finally:
        _C_SEARCH_NODES.value += nodes


def graph_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Exact graph isomorphism (Definition 1).

    With equal vertex and edge counts, a monomorphism is a bijection that
    uses every edge, i.e. an isomorphism.
    """
    if g1.num_vertices != g2.num_vertices or g1.num_edges != g2.num_edges:
        return False
    return subgraph_isomorphic(g1, g2)
