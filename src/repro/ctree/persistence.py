"""Size accounting for C-trees.

``index_size_bytes`` measures the JSON serialization of a whole tree —
structure, closures, histograms, and the database graphs at the leaves
(:func:`tree_to_dict`); this is the quantity plotted in Fig. 6(a) (for
GraphGrep the analogous measure is its fingerprint table; see
:mod:`repro.graphgrep.index`).  It is a measure only: nothing reads the
document back, and a saved index is a ``*.ctp`` page file or a shard
directory of them (:mod:`repro.ctree.saved`).
"""

from __future__ import annotations

import json

from repro.ctree.node import CTreeNode, LeafEntry
from repro.ctree.tree import CTree


def tree_to_dict(tree: CTree) -> dict:
    """The tree as one JSON-serializable document: configuration,
    graphs by id, and the node hierarchy with each node's closure."""

    def node_to_dict(node: CTreeNode) -> dict:
        data: dict = {"leaf": node.is_leaf}
        if node.closure is not None:
            data["closure"] = node.closure.to_dict()
        if node.is_leaf:
            data["graph_ids"] = [
                child.graph_id
                for child in node.children
                if isinstance(child, LeafEntry)
            ]
        else:
            data["children"] = [
                node_to_dict(child)
                for child in node.children
                if isinstance(child, CTreeNode)
            ]
        return data

    return {
        # Read by nothing; kept so the measured size stays comparable.
        "format": 1,
        "config": tree.config(),
        "graphs": {str(gid): g.to_dict() for gid, g in tree.graphs()},
        "root": node_to_dict(tree.root),
    }


def index_size_bytes(tree: CTree, include_graphs: bool = True) -> int:
    """Size of the serialized index in bytes.

    ``include_graphs=False`` measures only the index overhead (closures +
    structure), which isolates the summaries' cost from the data itself.
    """
    data = tree_to_dict(tree)
    if not include_graphs:
        data = dict(data)
        data.pop("graphs")
    return len(json.dumps(data, separators=(",", ":")).encode("utf-8"))
