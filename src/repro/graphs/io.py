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


