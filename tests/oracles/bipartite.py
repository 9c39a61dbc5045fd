"""Semi-perfect bipartite matching over Hopcroft-Karp: the acceptance
test the set-based Alg. 2 reference (:mod:`oracles.pseudo_iso`) calls."""

from __future__ import annotations

from typing import Sequence

from repro.matching.bipartite import hopcroft_karp


def matching_size(
    n_left: int, n_right: int, adjacency: Sequence[Sequence[int]]
) -> int:
    """Size of a maximum-cardinality matching."""
    return len(hopcroft_karp(n_left, n_right, adjacency))


def has_semi_perfect_matching(
    n_left: int, n_right: int, adjacency: Sequence[Sequence[int]]
) -> bool:
    """True iff some matching saturates every left vertex.

    This is the acceptance test of pseudo subgraph isomorphism: the query
    side is the left partition.  Short-circuits on the obvious necessary
    conditions before running Hopcroft-Karp.
    """
    if n_left == 0:
        return True  # nothing to saturate; skip Hopcroft-Karp entirely
    if n_left > n_right:
        return False
    if any(len(nbrs) == 0 for nbrs in adjacency[:n_left]):
        return False
    return matching_size(n_left, n_right, adjacency) == n_left
