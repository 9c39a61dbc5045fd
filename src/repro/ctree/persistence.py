"""Persistence and size accounting for C-trees.

The whole tree — structure, closures, histograms, and the database graphs at
the leaves — serializes to a single JSON document, so a C-tree can be built
once and reloaded for querying.  ``index_size_bytes`` measures the size of
that serialization; this is the quantity plotted in Fig. 6(a) (for
GraphGrep the analogous measure is its fingerprint table; see
:mod:`repro.graphgrep.index`).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from repro.exceptions import PersistenceError
from repro.graphs.closure import GraphClosure
from repro.graphs.graph import Graph
from repro.ctree.node import CTreeNode, LeafEntry
from repro.ctree.tree import CTree

PathLike = Union[str, Path]

FORMAT_VERSION = 1


def tree_to_dict(tree: CTree) -> dict:
    """A JSON-serializable snapshot of the tree."""

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
        "format": FORMAT_VERSION,
        "config": tree.config(),
        "graphs": {str(gid): g.to_dict() for gid, g in tree.graphs()},
        "root": node_to_dict(tree.root),
    }


def tree_from_dict(data: dict) -> CTree:
    """Rebuild a tree saved by :func:`tree_to_dict`."""
    try:
        if data.get("format") != FORMAT_VERSION:
            raise PersistenceError(
                f"unsupported C-tree format {data.get('format')!r}"
            )
        config = data["config"]
        tree = CTree(
            min_fanout=config["min_fanout"],
            max_fanout=config["max_fanout"],
            mapping_method=config["mapping_method"],
            insert_policy=config["insert_policy"],
            split_policy=config["split_policy"],
        )
        graphs = {
            int(gid): Graph.from_dict(gdata)
            for gid, gdata in data["graphs"].items()
        }
        tree._graphs = graphs
        tree._next_id = max(graphs, default=-1) + 1

        def build(node_data: dict) -> CTreeNode:
            node = CTreeNode(is_leaf=node_data["leaf"])
            if "closure" in node_data:
                node.closure = GraphClosure.from_dict(node_data["closure"])
            if node.is_leaf:
                for gid in node_data.get("graph_ids", []):
                    node.add_child(LeafEntry(gid, graphs[gid]))
            else:
                for child_data in node_data.get("children", []):
                    node.add_child(build(child_data))
            return node

        tree.root = build(data["root"])
        return tree
    except (KeyError, TypeError, ValueError) as exc:
        raise PersistenceError(f"malformed C-tree snapshot: {exc}") from exc


def save_tree(tree: CTree, path: PathLike) -> int:
    """Write the tree to ``path``; returns the byte size written."""
    text = json.dumps(tree_to_dict(tree), separators=(",", ":"))
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
    return len(text.encode("utf-8"))


def load_tree(path: PathLike) -> CTree:
    with open(path, "r", encoding="utf-8") as f:
        try:
            data = json.load(f)
        except json.JSONDecodeError as exc:
            raise PersistenceError(f"{path}: not valid JSON: {exc}") from exc
    return tree_from_dict(data)


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
