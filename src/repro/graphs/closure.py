"""Graph closures (Section 3 of the paper).

A *graph closure* is a generalized graph in which every vertex and every edge
carries a **set** of labels instead of a single label.  The closure of two
graphs under a mapping is their elementwise union: matched elements union
their attribute values, unmatched elements union with the dummy label
:data:`EPSILON`.  A closure acts as the structural analogue of a minimum
bounding rectangle: it "contains" every graph that participated in building
it.

:class:`GraphClosure` deliberately mirrors the accessor protocol of
:class:`~repro.graphs.graph.Graph` (``label_set``, ``edge_label_set``,
``neighbors``, ``num_vertices``...) so that the matching algorithms in
:mod:`repro.matching` work uniformly on graphs and closures.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Optional, Sequence, Union

from repro.exceptions import GraphError, MappingError
from repro.graphs.graph import Graph


class _Epsilon:
    """Singleton dummy label ε (Definition 2 / 7)."""

    _instance: Optional["_Epsilon"] = None

    def __new__(cls) -> "_Epsilon":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "ε"

    def __reduce__(self):  # keeps pickling singleton-safe
        return (_Epsilon, ())


EPSILON = _Epsilon()


class _Wildcard:
    """Singleton wildcard label for queries with uncertain vertices.

    The paper's introduction motivates subgraph queries where "some parts
    are uncertain, e.g., vertices with wildcard labels".  A query vertex or
    edge labeled :data:`WILDCARD` is label-compatible with every real label
    (but still requires the element to exist — it never matches a dummy).
    Wildcards are a query-side concept: database graphs should not contain
    them.
    """

    _instance: Optional["_Wildcard"] = None

    def __new__(cls) -> "_Wildcard":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "*"

    def __reduce__(self):
        return (_Wildcard, ())


WILDCARD = _Wildcard()


def contains_wildcard(g: "GraphLike") -> bool:
    """True if any vertex or edge of ``g`` carries the wildcard label."""
    for v in g.vertices():
        if WILDCARD in g.label_set(v):
            return True
    if isinstance(g, GraphClosure):
        return any(WILDCARD in s for _, _, s in g.edges())
    return any(label is WILDCARD for _, _, label in g.edges())


#: JSON marker for the dummy label.
_EPSILON_JSON = "__epsilon__"
#: JSON marker for the wildcard label.
_WILDCARD_JSON = "__wildcard__"

GraphLike = Union[Graph, "GraphClosure"]


class GraphClosure:
    """A generalized graph whose vertices and edges carry label *sets*.

    Vertices are integer ids ``0..n-1``; each has a non-empty ``frozenset``
    of labels (possibly including :data:`EPSILON`).  Edges likewise carry
    ``frozenset`` labels.
    """

    __slots__ = ("_vlabels", "_adj", "_num_edges", "_kernel_ctx",
                 "_log_volume", "_source")

    def __init__(self, vertex_label_sets: Sequence[Iterable] = ()) -> None:
        self._vlabels: list[frozenset] = [frozenset(s) for s in vertex_label_sets]
        for s in self._vlabels:
            if not s:
                raise GraphError("vertex label sets must be non-empty")
        self._adj: list[dict[int, frozenset]] = [{} for _ in self._vlabels]
        self._num_edges = 0
        self._reset()

    def _reset(self) -> None:
        """Drop what is memoised on the closure (every mutator does)."""
        #: memoized (labelspace, TargetContext) — see repro.graphs.labelspace
        self._kernel_ctx = None
        #: memoized :meth:`log_volume`
        self._log_volume = None
        #: of a singleton closure, its graph's ``(labelspace, vertex keys,
        #: profiles)`` at :meth:`from_graph`
        self._source = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(cls, graph: Graph) -> "GraphClosure":
        """The singleton closure of one graph (every label set has size 1).

        Each vertex lists its neighbours in ``graph.edges()`` order, as
        ``add_edge`` over those edges would.  The closure keeps its
        graph's interned vertex keys and profiles as they are now
        (``labelspace.graph_nbm_keys``): until the closure changes, Alg. 1
        reads those instead of counting the closure's, and a later change
        to the graph does not reach them."""
        # labelspace imports this module
        from repro.graphs.labelspace import graph_nbm_keys

        c = cls.__new__(cls)
        c._vlabels = [frozenset((label,)) for label in graph._labels]
        adj: list[dict[int, frozenset]] = [{} for _ in c._vlabels]
        for u, row in enumerate(graph._adj):
            for v, label in row.items():
                if u < v:
                    adj[u][v] = adj[v][u] = frozenset((label,))
        c._adj = adj
        c._num_edges = graph.num_edges
        c._reset()
        c._source = graph_nbm_keys(graph)
        return c

    def add_vertex(self, label_set: Iterable) -> int:
        s = frozenset(label_set)
        if not s:
            raise GraphError("vertex label sets must be non-empty")
        self._vlabels.append(s)
        self._adj.append({})
        self._reset()
        return len(self._vlabels) - 1

    def add_edge(self, u: int, v: int, label_set: Iterable) -> None:
        s = frozenset(label_set)
        if not s:
            raise GraphError("edge label sets must be non-empty")
        if not (0 <= u < len(self._vlabels) and 0 <= v < len(self._vlabels)):
            raise GraphError(f"edge ({u}, {v}) out of range")
        if u == v:
            raise GraphError("self-loops not supported")
        if v in self._adj[u]:
            raise GraphError(f"duplicate edge ({u}, {v})")
        self._adj[u][v] = s
        self._adj[v][u] = s
        self._num_edges += 1
        self._reset()

    # ------------------------------------------------------------------
    # Shared Graph protocol
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self._vlabels)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def vertices(self) -> range:
        return range(len(self._vlabels))

    def label_set(self, v: int) -> frozenset:
        return self._vlabels[v]

    def neighbors(self, v: int) -> Iterable[int]:
        return self._adj[v].keys()

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < len(self._adj) and v in self._adj[u]

    def edge_label_set(self, u: int, v: int) -> frozenset:
        try:
            return self._adj[u][v]
        except (KeyError, IndexError) as exc:
            raise GraphError(f"no edge ({u}, {v})") from exc

    def edges(self) -> Iterator[tuple[int, int, frozenset]]:
        for u, nbrs in enumerate(self._adj):
            for v, s in nbrs.items():
                if u < v:
                    yield (u, v, s)

    def adjacency(self, v: int) -> dict[int, frozenset]:
        return self._adj[v]

    # ------------------------------------------------------------------
    # Closure-specific queries
    # ------------------------------------------------------------------
    def min_num_vertices(self) -> int:
        """Lower bound on the vertex count of any member graph."""
        return sum(1 for s in self._vlabels if EPSILON not in s)

    def min_num_edges(self) -> int:
        """Lower bound on the edge count of any member graph."""
        return sum(1 for _, _, s in self.edges() if EPSILON not in s)

    def log_volume(self) -> float:
        """Natural log of the closure volume (Definition 10).

        The raw volume (product of label-set sizes) overflows for any
        realistic closure, so the library works with its logarithm, which is
        order-isomorphic and is all the insertion policies need.
        Memoised until the closure changes.
        """
        total = self._log_volume
        if total is None:
            log = math.log
            total = 0.0
            for s in self._vlabels:
                total += log(len(s))
            for u, row in enumerate(self._adj):
                for v, s in row.items():
                    if u < v:
                        total += log(len(s))
            self._log_volume = total
        return total

    # ------------------------------------------------------------------
    # Equality / repr
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GraphClosure):
            return NotImplemented
        return self._vlabels == other._vlabels and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((tuple(self._vlabels),
                     tuple(sorted((u, v) for u, v, _ in self.edges()))))

    def __repr__(self) -> str:
        return f"<GraphClosure |V|={self.num_vertices} |E|={self.num_edges}>"

    def copy(self) -> "GraphClosure":
        c = GraphClosure.__new__(GraphClosure)
        c._vlabels = list(self._vlabels)
        c._adj = [dict(nbrs) for nbrs in self._adj]
        c._num_edges = self._num_edges
        c._reset()
        c._log_volume, c._source = self._log_volume, self._source
        return c

    # ------------------------------------------------------------------
    # Pickling (never serialize the process-local kernel context cache)
    # ------------------------------------------------------------------
    def __getstate__(self):
        return (self._vlabels, self._adj, self._num_edges)

    def __setstate__(self, state) -> None:
        self._vlabels, self._adj, self._num_edges = state
        self._reset()

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    @staticmethod
    def _set_to_json(s: frozenset) -> list:
        def encode(x):
            if x is EPSILON:
                return _EPSILON_JSON
            if x is WILDCARD:
                return _WILDCARD_JSON
            return x

        return sorted((encode(x) for x in s), key=repr)

    @staticmethod
    def _set_from_json(items: list) -> frozenset:
        def decode(x):
            if x == _EPSILON_JSON:
                return EPSILON
            if x == _WILDCARD_JSON:
                return WILDCARD
            return x

        return frozenset(decode(x) for x in items)

    def to_dict(self) -> dict:
        return {
            "vertex_label_sets": [self._set_to_json(s) for s in self._vlabels],
            "edges": [[u, v, self._set_to_json(s)] for u, v, s in self.edges()],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GraphClosure":
        c = cls([cls._set_from_json(s) for s in data["vertex_label_sets"]])
        for u, v, s in data["edges"]:
            c.add_edge(u, v, cls._set_from_json(s))
        return c


def as_closure(g: GraphLike) -> GraphClosure:
    """View any graph-like object as a :class:`GraphClosure`."""
    if isinstance(g, GraphClosure):
        return g
    if isinstance(g, Graph):
        return GraphClosure.from_graph(g)
    raise GraphError(f"cannot interpret {type(g).__name__} as a closure")


def closure_under_mapping(
    g1: GraphLike,
    g2: GraphLike,
    mapping: Sequence[tuple[Optional[int], Optional[int]]],
    validated: bool = False,
) -> GraphClosure:
    """The closure of ``g1`` and ``g2`` under a mapping (Definition 8).

    ``mapping`` is a sequence of pairs ``(u, v)`` where ``u`` is a vertex of
    ``g1`` or ``None`` (dummy) and ``v`` is a vertex of ``g2`` or ``None``.
    Every vertex of both graphs must appear exactly once, and no pair may be
    dummy on both sides (Definition 2); ``validated=True`` skips that
    check for a mapping known to pass it (a ``GraphMapping``'s).

    Matched vertices/edges union their label sets; unmatched ones union with
    :data:`EPSILON`.  Vertex ``i`` of the result is the closure of pair
    ``i``; its edges are ``g1``'s in ``edges()`` order, then the ``g2``
    edges no ``g1`` edge maps onto, in theirs.
    """
    c1 = as_closure(g1)
    c2 = as_closure(g2)
    if not validated:
        _validate_mapping(c1, c2, mapping)

    eps = frozenset((EPSILON,))
    sets1, sets2 = c1._vlabels, c2._vlabels
    # Each side's vertex -> its pair's id; a g1 vertex -> its g2 image.
    ids1, ids2 = [0] * len(sets1), [0] * len(sets2)
    image: list[Optional[int]] = [None] * len(sets1)
    vlabels: list[frozenset] = []
    for i, (u, v) in enumerate(mapping):
        if u is None:
            vlabels.append(sets2[v] | eps)
            ids2[v] = i
        elif v is None:
            vlabels.append(sets1[u] | eps)
            ids1[u] = i
        else:
            vlabels.append(sets1[u] | sets2[v])
            ids1[u] = ids2[v] = i
            image[u] = v

    adj: list[dict[int, frozenset]] = [{} for _ in vlabels]
    adj2, no_row = c2._adj, {}
    num_edges = 0
    for a, row in enumerate(c1._adj):
        x, va = ids1[a], image[a]
        rx, image_row = adj[x], no_row if va is None else adj2[va]
        for b, s1 in row.items():
            if a < b:
                y = ids1[b]
                s2 = image_row.get(image[b])
                rx[y] = adj[y][x] = s1 | (eps if s2 is None else s2)
                num_edges += 1
    for a, row in enumerate(adj2):
        x = ids2[a]
        rx = adj[x]
        for b, s2 in row.items():
            if a < b:
                y = ids2[b]
                if y not in rx:
                    rx[y] = adj[y][x] = s2 | eps
                    num_edges += 1

    result = GraphClosure.__new__(GraphClosure)
    result._vlabels = vlabels
    result._adj = adj
    result._num_edges = num_edges
    result._reset()
    return result


def _validate_mapping(
    c1: GraphClosure,
    c2: GraphClosure,
    mapping: Sequence[tuple[Optional[int], Optional[int]]],
) -> None:
    seen1: set[int] = set()
    seen2: set[int] = set()
    for u, v in mapping:
        if u is None and v is None:
            raise MappingError("mapping pair is dummy on both sides")
        if u is not None:
            if not 0 <= u < c1.num_vertices:
                raise MappingError(f"vertex {u} out of range in first graph")
            if u in seen1:
                raise MappingError(f"vertex {u} mapped twice in first graph")
            seen1.add(u)
        if v is not None:
            if not 0 <= v < c2.num_vertices:
                raise MappingError(f"vertex {v} out of range in second graph")
            if v in seen2:
                raise MappingError(f"vertex {v} mapped twice in second graph")
            seen2.add(v)
    if len(seen1) != c1.num_vertices:
        raise MappingError("mapping does not cover all vertices of first graph")
    if len(seen2) != c2.num_vertices:
        raise MappingError("mapping does not cover all vertices of second graph")
