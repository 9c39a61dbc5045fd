"""Labeled undirected graphs.

:class:`Graph` is the fundamental data object of the library: a vertex- and
edge-labeled undirected graph with contiguous integer vertex ids.  It mirrors
the data model of the Closure-tree paper (Section 2): vertices carry a single
label as their attribute; edges carry an optional label (the paper's chemical
graphs use "unspecified but identical" edge labels, which we model as
``None``).

The representation is adjacency dictionaries (one ``dict[int, label]`` per
vertex), which makes the inner loops of Ullmann's algorithm and pseudo
subgraph isomorphism as cheap as pure Python allows.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator, Optional, Sequence

from repro.exceptions import GraphError

Label = Hashable


class Graph:
    """A labeled undirected graph with integer vertex ids ``0..n-1``.

    Parameters
    ----------
    vertex_labels:
        Labels for the initial vertices, in id order.
    edges:
        Iterable of ``(u, v)`` or ``(u, v, label)`` tuples.

    Examples
    --------
    >>> g = Graph(["C", "C", "O"], [(0, 1), (1, 2)])
    >>> g.num_vertices, g.num_edges
    (3, 2)
    >>> sorted(g.neighbors(1))
    [0, 2]
    """

    __slots__ = ("_labels", "_adj", "_num_edges", "name", "_kernel_ctx",
                 "_signature")

    def __init__(
        self,
        vertex_labels: Sequence[Label] = (),
        edges: Iterable[tuple] = (),
        name: Optional[str] = None,
    ) -> None:
        self._labels: list[Label] = list(vertex_labels)
        self._adj: list[dict[int, Label]] = [{} for _ in self._labels]
        self._num_edges = 0
        self.name = name
        #: memoized (labelspace, TargetContext) — see repro.graphs.labelspace
        self._kernel_ctx = None
        #: memoized signature() tuple; every mutator clears it
        self._signature = None
        for edge in edges:
            if len(edge) == 2:
                u, v = edge
                self.add_edge(u, v)
            else:
                u, v, label = edge
                self.add_edge(u, v, label)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_vertex(self, label: Label) -> int:
        """Append a vertex with the given label and return its id."""
        self._labels.append(label)
        self._adj.append({})
        self._kernel_ctx = None
        self._signature = None
        return len(self._labels) - 1

    def add_edge(self, u: int, v: int, label: Label = None) -> None:
        """Add an undirected edge between ``u`` and ``v``.

        Raises :class:`GraphError` on self-loops, duplicate edges, or
        out-of-range endpoints.
        """
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise GraphError(f"self-loop on vertex {u} not supported")
        if v in self._adj[u]:
            raise GraphError(f"duplicate edge ({u}, {v})")
        self._adj[u][v] = label
        self._adj[v][u] = label
        self._num_edges += 1
        self._kernel_ctx = None
        self._signature = None

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < len(self._labels):
            raise GraphError(f"vertex {v} out of range [0, {len(self._labels)})")

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self._labels)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def vertices(self) -> range:
        """All vertex ids."""
        return range(len(self._labels))

    def label(self, v: int) -> Label:
        """The label of vertex ``v``."""
        return self._labels[v]

    def label_set(self, v: int) -> frozenset:
        """The label of ``v`` viewed as a singleton set.

        This is the shared protocol between :class:`Graph` and
        :class:`~repro.graphs.closure.GraphClosure`: matching code that
        accepts either calls ``label_set`` and intersects.
        """
        return frozenset((self._labels[v],))

    def neighbors(self, v: int) -> Iterable[int]:
        """Neighbor ids of ``v``."""
        return self._adj[v].keys()

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < len(self._adj) and v in self._adj[u]

    def edge_label(self, u: int, v: int) -> Label:
        """The label of edge ``(u, v)`` (must exist)."""
        try:
            return self._adj[u][v]
        except (KeyError, IndexError) as exc:
            raise GraphError(f"no edge ({u}, {v})") from exc

    def edge_label_set(self, u: int, v: int) -> frozenset:
        """Edge label viewed as a singleton set (closure protocol)."""
        return frozenset((self.edge_label(u, v),))

    def edges(self) -> Iterator[tuple[int, int, Label]]:
        """Iterate over edges once each, as ``(u, v, label)`` with ``u < v``."""
        for u, nbrs in enumerate(self._adj):
            for v, label in nbrs.items():
                if u < v:
                    yield (u, v, label)

    def adjacency(self, v: int) -> dict[int, Label]:
        """The (read-only by convention) adjacency dict of ``v``."""
        return self._adj[v]

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def copy(self) -> "Graph":
        g = Graph.__new__(Graph)
        g._labels = list(self._labels)
        g._adj = [dict(nbrs) for nbrs in self._adj]
        g._num_edges = self._num_edges
        g.name = self.name
        g._kernel_ctx = None
        # The signature is a structural invariant and copies share
        # structure, so the memoized tuple carries over.
        g._signature = self._signature
        return g

    def subgraph(self, vertices: Sequence[int]) -> "Graph":
        """The vertex-induced subgraph on ``vertices``.

        Vertices are renumbered ``0..k-1`` in the order given.
        """
        index = {v: i for i, v in enumerate(vertices)}
        if len(index) != len(vertices):
            raise GraphError("duplicate vertices in subgraph selection")
        sub = Graph([self._labels[v] for v in vertices])
        for v in vertices:
            for w, label in self._adj[v].items():
                if w in index and v < w:
                    sub.add_edge(index[v], index[w], label)
        return sub

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    def bfs_levels(self, start: int, max_level: Optional[int] = None) -> dict[int, int]:
        """BFS distance of every vertex reachable from ``start``.

        If ``max_level`` is given, exploration stops at that distance.
        """
        self._check_vertex(start)
        levels = {start: 0}
        frontier = [start]
        level = 0
        while frontier and (max_level is None or level < max_level):
            level += 1
            next_frontier = []
            for v in frontier:
                for w in self._adj[v]:
                    if w not in levels:
                        levels[w] = level
                        next_frontier.append(w)
            frontier = next_frontier
        return levels

    # ------------------------------------------------------------------
    # Equality / hashing helpers
    # ------------------------------------------------------------------
    def structure_equal(self, other: "Graph") -> bool:
        """Exact equality of labels and adjacency (identity mapping).

        This is *not* isomorphism: vertex ids must line up.
        """
        return (
            isinstance(other, Graph)
            and self._labels == other._labels
            and self._adj == other._adj
        )

    def signature(self) -> tuple:
        """A cheap isomorphism-*invariant* (not complete) fingerprint.

        Two isomorphic graphs always have equal signatures; unequal
        signatures prove non-isomorphism.  Used for fast dataset dedup
        and as the graph's hash, so a query graph is its own key in the
        batched query engine's answer cache.  The tuple is memoized on
        the instance (mutators invalidate it), so repeated lookups cost
        one attribute read.
        """
        if self._signature is not None:
            return self._signature
        vertex_part = tuple(sorted(map(repr, self._labels)))
        degree_part = tuple(sorted(len(nbrs) for nbrs in self._adj))
        edge_part = tuple(
            sorted(
                (min(repr(self._labels[u]), repr(self._labels[v])),
                 max(repr(self._labels[u]), repr(self._labels[v])),
                 repr(label))
                for u, v, label in self.edges()
            )
        )
        self._signature = (vertex_part, degree_part, edge_part)
        return self._signature

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.structure_equal(other)

    def __hash__(self) -> int:
        # Equal graphs have equal signatures; isomorphic renumberings
        # collide and ``__eq__`` tells them apart.  Do not mutate a
        # graph while it is a dict key.
        return hash(self.signature())

    def __repr__(self) -> str:
        name = f" {self.name!r}" if self.name else ""
        return f"<Graph{name} |V|={self.num_vertices} |E|={self.num_edges}>"

    # ------------------------------------------------------------------
    # Pickling (the kernel context cache holds bitmasks tied to this
    # process's label interner, so it must never be serialized)
    # ------------------------------------------------------------------
    def __getstate__(self):
        return (self._labels, self._adj, self._num_edges, self.name)

    def __setstate__(self, state) -> None:
        self._labels, self._adj, self._num_edges, self.name = state
        self._kernel_ctx = None
        self._signature = None

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """A JSON-serializable description of the graph.

        The query wildcard label serializes as the marker string
        ``"__wildcard__"``.
        """
        from repro.graphs.closure import WILDCARD

        def encode(label):
            return "__wildcard__" if label is WILDCARD else label

        data = {
            "labels": [encode(label) for label in self._labels],
            "edges": [
                [u, v] if label is None else [u, v, encode(label)]
                for u, v, label in self.edges()
            ],
        }
        if self.name is not None:
            data["name"] = self.name
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "Graph":
        from repro.graphs.closure import WILDCARD

        def decode(label):
            return WILDCARD if label == "__wildcard__" else label

        g = cls([decode(label) for label in data["labels"]],
                name=data.get("name"))
        for edge in data["edges"]:
            if len(edge) == 2:
                g.add_edge(edge[0], edge[1])
            else:
                g.add_edge(edge[0], edge[1], decode(edge[2]))
        return g
