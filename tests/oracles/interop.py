"""Conversion between :class:`repro.graphs.graph.Graph` and networkx.

networkx is a test dependency: the tests cross-validate Hopcroft-Karp and
Ullmann against it through this conversion.
"""

from __future__ import annotations

from typing import Any

from repro.exceptions import GraphError
from repro.graphs.graph import Graph


def to_networkx(graph: Graph) -> "Any":
    """Convert to a ``networkx.Graph`` with ``label`` node/edge attributes."""
    import networkx as nx

    g = nx.Graph()
    for v in graph.vertices():
        g.add_node(v, label=graph.label(v))
    for u, v, label in graph.edges():
        g.add_edge(u, v, label=label)
    return g


def from_networkx(nxg: "Any", label_attr: str = "label") -> Graph:
    """Convert from a ``networkx.Graph``.

    Node labels are read from ``label_attr`` (missing attribute raises
    :class:`GraphError`); edge labels from the same attribute, defaulting to
    ``None``.  Node ids may be arbitrary hashables; they are renumbered in
    sorted-by-repr order for determinism.
    """
    nodes = sorted(nxg.nodes, key=repr)
    index = {node: i for i, node in enumerate(nodes)}
    labels = []
    for node in nodes:
        attrs = nxg.nodes[node]
        if label_attr not in attrs:
            raise GraphError(f"node {node!r} is missing attribute {label_attr!r}")
        labels.append(attrs[label_attr])
    g = Graph(labels)
    for u, v, attrs in nxg.edges(data=True):
        g.add_edge(index[u], index[v], attrs.get(label_attr))
    return g
