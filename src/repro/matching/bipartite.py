"""Maximum-cardinality bipartite matching (Hopcroft-Karp [16]).

The paper uses bipartite matching in three places:

1. the global semi-perfect matching test of pseudo subgraph isomorphism
   (Definition 13),
2. the local semi-perfect matching tests inside ``RefineBipartite``
   (Theorem 1), and
3. the unweighted variant of the bipartite mapping method (Section 4.2).

A matching is *semi-perfect* when every left (query-side) vertex is matched.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

_INF = float("inf")


def hopcroft_karp(
    n_left: int,
    n_right: int,
    adjacency: Sequence[Sequence[int]],
) -> dict[int, int]:
    """Maximum-cardinality matching of a bipartite graph.

    Parameters
    ----------
    n_left, n_right:
        Partition sizes; left vertices are ``0..n_left-1``.
    adjacency:
        ``adjacency[u]`` lists the right-side neighbors of left vertex ``u``.

    Returns
    -------
    dict mapping matched left vertices to their right partners.

    Runs in O(E * sqrt(V)).
    """
    match_left: list[int] = [-1] * n_left
    match_right: list[int] = [-1] * n_right
    dist: list[float] = [0.0] * n_left

    def bfs() -> bool:
        queue: deque[int] = deque()
        for u in range(n_left):
            if match_left[u] == -1:
                dist[u] = 0.0
                queue.append(u)
            else:
                dist[u] = _INF
        found_free = False
        while queue:
            u = queue.popleft()
            for v in adjacency[u]:
                w = match_right[v]
                if w == -1:
                    found_free = True
                elif dist[w] == _INF:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return found_free

    def dfs(u: int) -> bool:
        for v in adjacency[u]:
            w = match_right[v]
            if w == -1 or (dist[w] == dist[u] + 1 and dfs(w)):
                match_left[u] = v
                match_right[v] = u
                return True
        dist[u] = _INF
        return False

    while bfs():
        for u in range(n_left):
            if match_left[u] == -1:
                dfs(u)

    return {u: v for u, v in enumerate(match_left) if v != -1}


