"""Optimal graph mapping by branch-and-bound state search (Section 4.1).

At each search state one free vertex of ``g1`` is mapped onto a free vertex
of ``g2`` (or a dummy); an upper bound on the similarity achievable by the
remaining free vertices (a relaxation of Eqn. 7) prunes hopeless states.
Exact but exponential — the paper recommends it only for graphs of fewer
than ~10 vertices, and that is how this module is used: as the ``state``
method of :func:`repro.matching.edit_distance.graph_mapping` for tiny
inputs.  The exact similarity and distance the tests hold the heuristic
mappers to are in ``tests/oracles/state_search.py``.
"""

from __future__ import annotations

from repro.exceptions import ConfigError
from repro.graphs.closure import GraphLike
from repro.graphs.mapping import GraphMapping, uniform_set_similarity

#: Refuse exact search above this size — the state space explodes.
DEFAULT_SIZE_LIMIT = 12


def state_search_mapping(
    g1: GraphLike,
    g2: GraphLike,
    size_limit: int = DEFAULT_SIZE_LIMIT,
) -> GraphMapping:
    """The similarity-optimal mapping between two small graphs.

    Raises :class:`ConfigError` when either graph exceeds ``size_limit``
    vertices.
    """
    n1, n2 = g1.num_vertices, g2.num_vertices
    if max(n1, n2) > size_limit:
        raise ConfigError(
            f"state search limited to {size_limit} vertices "
            f"(got {n1} and {n2}); use NBM for larger graphs"
        )
    if n1 == 0 or n2 == 0:
        return GraphMapping.from_partial(g1, g2, {})

    sets1 = [g1.label_set(u) for u in range(n1)]
    sets2 = [g2.label_set(v) for v in range(n2)]
    vsim = [[uniform_set_similarity(s1, s2) for s2 in sets2] for s1 in sets1]

    # Order g1 vertices by decreasing degree: high-degree vertices constrain
    # the most edges, which tightens bounds early.
    order = sorted(range(n1), key=lambda u: -g1.degree(u))
    position = {u: i for i, u in enumerate(order)}

    # Admissible per-vertex future bound: best vertex similarity plus the
    # maximal edge similarity per incident g1 edge whose *later* endpoint is
    # this vertex.  An edge's gain is realized exactly when its later
    # endpoint is assigned, so charging edges to their later endpoint makes
    # the suffix sum an upper bound on all future gains.
    max_vsim = [max(row) if row else 0.0 for row in vsim]
    max_esim = _max_edge_similarity(g1, g2)
    edges_ending_here = [0] * n1
    for u in range(n1):
        edges_ending_here[position[u]] = sum(
            1 for w in g1.neighbors(u) if position[w] < position[u]
        )
    suffix_bound = [0.0] * (n1 + 1)
    for i in range(n1 - 1, -1, -1):
        suffix_bound[i] = (
            suffix_bound[i + 1]
            + max_vsim[order[i]]
            + max_esim * edges_ending_here[i]
        )

    best_sim = -1.0
    best_assignment: dict[int, int] = {}
    assignment: dict[int, int] = {}
    used2 = [False] * n2

    def edge_gain(u: int, v: int) -> float:
        gain = 0.0
        for u2 in g1.neighbors(u):
            v2 = assignment.get(u2)
            if v2 is not None and g2.has_edge(v, v2):
                gain += uniform_set_similarity(
                    g1.edge_label_set(u, u2), g2.edge_label_set(v, v2)
                )
        return gain

    def search(i: int, current: float) -> None:
        nonlocal best_sim, best_assignment
        if i == n1:
            if current > best_sim:
                best_sim = current
                best_assignment = dict(assignment)
            return
        if current + suffix_bound[i] <= best_sim:
            return  # prune: even a perfect future cannot beat the incumbent
        u = order[i]
        # Try candidate images in decreasing immediate-gain order.
        candidates = []
        for v in range(n2):
            if not used2[v]:
                candidates.append((vsim[u][v] + edge_gain(u, v), v))
        candidates.sort(key=lambda t: (-t[0], t[1]))
        for gain, v in candidates:
            assignment[u] = v
            used2[v] = True
            search(i + 1, current + gain)
            used2[v] = False
            del assignment[u]
        # Dummy option: u stays unmatched.
        search(i + 1, current)

    search(0, 0.0)
    return GraphMapping.from_partial(g1, g2, best_assignment)


def _max_edge_similarity(g1: GraphLike, g2: GraphLike) -> float:
    """The largest achievable edge-pair similarity (used in the bound):
    1.0 if some pair of edge label sets intersects, else 0.0."""
    sets2 = {s for _, _, s in _edge_iter(g2)}
    return 1.0 if any(s1 & s2 for _, _, s1 in _edge_iter(g1)
                      for s2 in sets2) else 0.0


def _edge_iter(g: GraphLike):
    from repro.graphs.closure import GraphClosure

    if isinstance(g, GraphClosure):
        yield from g.edges()
    else:
        for u, v, label in g.edges():
            yield (u, v, frozenset((label,)))


