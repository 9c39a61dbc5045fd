"""Serialization of graphs and graph databases.

The on-disk database format is JSON Lines: one graph per line, in the format
produced by :meth:`repro.graphs.graph.Graph.to_dict`.  The format is
deliberately boring — a C-tree index is saved as a page file of its own
(:mod:`repro.ctree.saved`).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Union

from repro.exceptions import PersistenceError
from repro.graphs.graph import Graph

PathLike = Union[str, Path]


def save_graph_database(graphs: Iterable[Graph], path: PathLike) -> int:
    """Write graphs to ``path`` as JSON lines.  Returns the count written."""
    count = 0
    with open(path, "w", encoding="utf-8") as f:
        for g in graphs:
            f.write(json.dumps(g.to_dict(), separators=(",", ":")))
            f.write("\n")
            count += 1
    return count


def load_graph_database(path: PathLike) -> list[Graph]:
    """Load a JSON-lines graph database written by
    :func:`save_graph_database`."""
    graphs: list[Graph] = []
    with open(path, "r", encoding="utf-8") as f:
        for line_no, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                graphs.append(Graph.from_dict(json.loads(line)))
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise PersistenceError(
                    f"{path}:{line_no}: malformed graph record: {exc}"
                ) from exc
    return graphs


def graph_to_json(graph: Graph) -> str:
    """Serialize a single graph to a JSON string."""
    return json.dumps(graph.to_dict(), separators=(",", ":"))


def graph_from_json(text: str) -> Graph:
    """Parse a graph from a JSON string."""
    try:
        return Graph.from_dict(json.loads(text))
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise PersistenceError(f"malformed graph JSON: {exc}") from exc


def database_size_bytes(graphs: Iterable[Graph]) -> int:
    """Serialized size of a database in bytes (used as the "data size"
    reference point when reporting index sizes)."""
    return sum(len(graph_to_json(g)) + 1 for g in graphs)


def format_graph(graph: Graph) -> str:
    """A human-readable multi-line rendering of a graph (for debugging and
    CLI output)::

        graph "ethanol" |V|=3 |E|=2
          v0: C
          v1: C
          v2: O
          e: 0-1, 1-2
    """
    name = f' "{graph.name}"' if graph.name else ""
    lines = [f"graph{name} |V|={graph.num_vertices} |E|={graph.num_edges}"]
    for v in graph.vertices():
        lines.append(f"  v{v}: {graph.label(v)!r}")
    edge_bits = []
    for u, v, label in graph.edges():
        if label is None:
            edge_bits.append(f"{u}-{v}")
        else:
            edge_bits.append(f"{u}-{v}({label!r})")
    if edge_bits:
        lines.append("  e: " + ", ".join(edge_bits))
    return "\n".join(lines)
