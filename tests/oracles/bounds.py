"""Eqn. (7) in set form: the reference of ``repro.matching.bounds``.

``Sim(V1, V2)`` and ``Sim(E1, E2)`` under the uniform 0/1 measure are
maximum-cardinality matchings between two lists of label sets, elements
pairable iff their sets intersect.  Here they are computed the plain way
— Hopcroft-Karp on the expanded lists — where the product matches the
classes of equal label masks (``bounds._matching_value``) or intersects
two histograms.
"""

from __future__ import annotations

from typing import Sequence

from repro.graphs.closure import GraphClosure, GraphLike
from repro.graphs.graph import Graph
from repro.matching.bipartite import hopcroft_karp


def vertex_label_sets(g: GraphLike) -> list[frozenset]:
    """Label sets of all vertices, in id order."""
    return [g.label_set(v) for v in g.vertices()]


def edge_label_sets(g: GraphLike) -> list[frozenset]:
    """Label sets of all edges (arbitrary but deterministic order)."""
    if isinstance(g, GraphClosure):
        return [s for _, _, s in g.edges()]
    if isinstance(g, Graph):
        return [frozenset((label,)) for _, _, label in g.edges()]
    raise TypeError(f"cannot extract edges of {type(g).__name__}")


def set_similarity_upper_bound(
    sets1: Sequence[frozenset],
    sets2: Sequence[frozenset],
) -> float:
    """Maximum-cardinality matching value between two lists of label sets,
    where elements may be paired iff their sets intersect."""
    if not sets1 or not sets2:
        return 0.0
    label_to_right: dict = {}
    for j, s in enumerate(sets2):
        for label in s:
            label_to_right.setdefault(label, []).append(j)
    adjacency: list[list[int]] = []
    for s in sets1:
        nbrs: set[int] = set()
        for label in s:
            nbrs.update(label_to_right.get(label, ()))
        adjacency.append(sorted(nbrs))
    return float(len(hopcroft_karp(len(sets1), len(sets2), adjacency)))
