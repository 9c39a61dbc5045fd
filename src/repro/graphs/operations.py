"""Structural helper operations on graphs.

These are the workload-side utilities: random connected subgraph extraction
(how the paper generates queries, Section 8.1), breadth-first adjacent
subgraphs (Section 6.1's level-n neighborhoods), and small conveniences used
by generators and tests.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.exceptions import GraphError
from repro.graphs.graph import Graph


def random_connected_subgraph(
    graph: Graph,
    num_vertices: int,
    rng: random.Random,
) -> Graph:
    """Extract a random connected vertex-induced subgraph.

    Mirrors the paper's query generation: "randomly extracting a connected
    subgraph from the graph".  Grows a set from a random start vertex by
    repeatedly absorbing a random neighbor of the current boundary.

    Raises :class:`GraphError` if the graph has no connected subgraph of the
    requested size reachable from any start vertex (e.g. the graph is
    smaller, or too fragmented).
    """
    if num_vertices <= 0:
        raise GraphError("subgraph size must be positive")
    if graph.num_vertices < num_vertices:
        raise GraphError(
            f"graph has {graph.num_vertices} vertices, need {num_vertices}"
        )
    starts = list(graph.vertices())
    rng.shuffle(starts)
    for start in starts:
        chosen = _grow_from(graph, start, num_vertices, rng)
        if chosen is not None:
            return graph.subgraph(chosen)
    raise GraphError(f"no connected subgraph of size {num_vertices} found")


def _grow_from(
    graph: Graph, start: int, num_vertices: int, rng: random.Random
) -> Optional[list[int]]:
    chosen = [start]
    chosen_set = {start}
    boundary = [w for w in graph.neighbors(start)]
    while len(chosen) < num_vertices:
        boundary = [w for w in boundary if w not in chosen_set]
        if not boundary:
            return None
        nxt = rng.choice(boundary)
        chosen.append(nxt)
        chosen_set.add(nxt)
        boundary.extend(w for w in graph.neighbors(nxt) if w not in chosen_set)
    return chosen


