"""Hungarian algorithm (Kuhn-Munkres) for weighted bipartite matching [17, 18].

Used by the weighted bipartite mapping method (Section 4.2).

The implementation is the O(n^2 * m) shortest-augmenting-path formulation
with dual potentials, supporting rectangular matrices.  With non-negative
weights, assigning every vertex of the smaller side yields the
maximum-weight matching, which is the quantity the paper needs.
"""

from __future__ import annotations

from typing import Sequence

_INF = float("inf")


def min_cost_assignment(cost: Sequence[Sequence[float]]) -> dict[int, int]:
    """Minimum-cost assignment of all rows to distinct columns.

    ``cost`` is an ``n x m`` matrix with ``n <= m``.  Returns a dict mapping
    every row index to its assigned column index.
    """
    n = len(cost)
    if n == 0:
        return {}
    m = len(cost[0])
    if n > m:
        raise ValueError(f"need n <= m, got {n} rows and {m} columns")

    # 1-based arrays, following the classic formulation.
    u = [0.0] * (n + 1)
    v = [0.0] * (m + 1)
    p = [0] * (m + 1)  # p[j] = row assigned to column j (0 = none)
    way = [0] * (m + 1)

    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [_INF] * (m + 1)
        used = [False] * (m + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = _INF
            j1 = 0
            row = cost[i0 - 1]
            for j in range(1, m + 1):
                if used[j]:
                    continue
                cur = row[j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(m + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0 != 0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1

    return {p[j] - 1: j - 1 for j in range(1, m + 1) if p[j] != 0}


def max_weight_assignment(
    weights: Sequence[Sequence[float]],
) -> tuple[dict[int, int], float]:
    """Maximum-weight assignment of the smaller side of a bipartite graph.

    ``weights[i][j]`` is the weight of pairing left ``i`` with right ``j``.
    Returns ``(assignment, total_weight)`` where ``assignment`` maps left
    indices to right indices.  Rectangular matrices are handled by
    transposing internally.

    With non-negative weights the result is a maximum-weight bipartite
    matching (pairing extra vertices never decreases the total).
    """
    n = len(weights)
    if n == 0:
        return ({}, 0.0)
    m = len(weights[0])
    if n <= m:
        cost = [[-w for w in row] for row in weights]
        assignment = min_cost_assignment(cost)
        total = sum(weights[i][j] for i, j in assignment.items())
        return (assignment, total)
    # Transpose: assign all columns, then invert.
    transposed = [[-weights[i][j] for i in range(n)] for j in range(m)]
    assignment_t = min_cost_assignment(transposed)
    assignment = {i: j for j, i in assignment_t.items()}
    total = sum(weights[i][j] for i, j in assignment.items())
    return (assignment, total)
