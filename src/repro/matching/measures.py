"""Vertex and edge distance/similarity measures (Section 2, Definition 9).

All measures operate on label *sets* (the shared protocol between
:class:`~repro.graphs.graph.Graph` and
:class:`~repro.graphs.closure.GraphClosure`), with the dummy represented by
``{ε}``.  The paper's uniform measure on plain graphs and the closure-aware
``d_min`` / ``sim_max`` of Definition 9 are then the *same* function: two
sets can agree on a value iff they intersect.
"""

from __future__ import annotations

from repro.graphs.closure import GraphClosure, GraphLike
from repro.graphs.graph import Graph
from repro.graphs.mapping import (
    DUMMY_SET,
    uniform_set_distance,
    uniform_set_similarity,
)

__all__ = [
    "DUMMY_SET",
    "uniform_set_distance",
    "uniform_set_similarity",
    "vertex_label_sets",
    "edge_label_sets",
]


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

