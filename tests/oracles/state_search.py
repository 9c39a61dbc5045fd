"""Exact similarity and edit distance for small graphs (Section 4.1):
the ground truth the heuristic mappers are tested against."""

from __future__ import annotations

from typing import Optional

from repro.exceptions import ConfigError
from repro.graphs.closure import GraphLike
from repro.graphs.mapping import GraphMapping
from repro.matching.state_search import DEFAULT_SIZE_LIMIT, state_search_mapping


def optimal_similarity(
    g1: GraphLike,
    g2: GraphLike,
    size_limit: int = DEFAULT_SIZE_LIMIT,
) -> float:
    """Exact ``Sim(G1, G2)`` (Definition 6) for small graphs."""
    mapping = state_search_mapping(g1, g2, size_limit=size_limit)
    return mapping.similarity()


def optimal_distance(
    g1: GraphLike,
    g2: GraphLike,
    size_limit: int = 8,
) -> float:
    """Exact graph edit distance (Definition 4) for *tiny* graphs.

    Enumerates all extended bijections with branch-and-bound on the vertex
    cost.  Exponential; intended for cross-validation in tests.
    """
    n1, n2 = g1.num_vertices, g2.num_vertices
    if max(n1, n2) > size_limit:
        raise ConfigError(
            f"optimal_distance limited to {size_limit} vertices "
            f"(got {n1} and {n2})"
        )

    best: float = float(
        GraphMapping.from_partial(g1, g2, {}).edit_cost()
    )  # all-dummy mapping is always feasible
    assignment: dict[int, int] = {}
    used2 = [False] * n2

    def search(u: int) -> None:
        nonlocal best
        if u == n1:
            cost = GraphMapping.from_partial(g1, g2, assignment).edit_cost()
            if cost < best:
                best = cost
            return
        for v in range(n2):
            if not used2[v]:
                assignment[u] = v
                used2[v] = True
                search(u + 1)
                used2[v] = False
                del assignment[u]
        search(u + 1)  # dummy

    search(0)
    return best


def optimal_mapping_or_none(
    g1: GraphLike, g2: GraphLike, size_limit: int = DEFAULT_SIZE_LIMIT
) -> Optional[GraphMapping]:
    """:func:`state_search_mapping`, or ``None`` if the graphs are too big
    instead of raising."""
    try:
        return state_search_mapping(g1, g2, size_limit=size_limit)
    except ConfigError:
        return None
