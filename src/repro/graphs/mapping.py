"""Graph mappings and costs under a mapping (Definitions 2-6, 9).

A :class:`GraphMapping` is the extended bijection of Definition 2: every
vertex of both graphs appears in exactly one pair, possibly paired with a
dummy (``None``).  Edit cost (Def. 3), similarity (Def. 6), and subgraph
cost (Eqn. 4) are all computed *under* a given mapping; finding a good
mapping is the job of :mod:`repro.matching`.

All cost functions operate on label **sets** via the shared
``label_set``/``edge_label_set`` protocol, with a dummy represented as the
singleton set ``{ε}``.  With the paper's uniform measure this uniformly
yields:

- exact distance/similarity when both operands are plain graphs
  (singleton sets intersect iff the labels are equal), and
- the *minimum* distance / *maximum* similarity of Definition 9 when either
  operand is a closure (sets intersect iff some member label could match).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.exceptions import MappingError
from repro.graphs.closure import (
    EPSILON,
    GraphClosure,
    GraphLike,
    closure_under_mapping,
)

DUMMY_SET = frozenset((EPSILON,))


def uniform_set_distance(s1: frozenset, s2: frozenset) -> float:
    """0 if the label sets can agree on a value, else 1 (uniform measure)."""
    return 0.0 if s1 & s2 else 1.0


def uniform_set_similarity(s1: frozenset, s2: frozenset) -> float:
    """1 if the label sets can agree on a value, else 0 (uniform measure)."""
    return 1.0 if s1 & s2 else 0.0


class GraphMapping:
    """An extended bijection between two graph-like objects.

    Parameters
    ----------
    g1, g2:
        :class:`~repro.graphs.graph.Graph` or
        :class:`~repro.graphs.closure.GraphClosure`.
    pairs:
        Sequence of ``(u, v)`` pairs; ``None`` denotes a dummy.  Every vertex
        of each graph must appear exactly once and no pair may be
        dummy-dummy.
    """

    __slots__ = ("g1", "g2", "pairs", "_forward")

    def __init__(
        self,
        g1: GraphLike,
        g2: GraphLike,
        pairs: Sequence[tuple[Optional[int], Optional[int]]],
    ) -> None:
        self.g1 = g1
        self.g2 = g2
        self.pairs = list(pairs)
        self._forward: dict[int, Optional[int]] = {}
        self._validate()

    @classmethod
    def from_partial(
        cls,
        g1: GraphLike,
        g2: GraphLike,
        partial: dict[int, int],
    ) -> "GraphMapping":
        """Extend a partial injective vertex map with dummy pairings.

        ``partial`` maps (some) vertices of ``g1`` to distinct vertices of
        ``g2``; all remaining vertices on both sides are paired with dummies.
        """
        used2 = set(partial.values())
        if len(used2) != len(partial):
            raise MappingError("partial mapping is not injective")
        pairs: list[tuple[Optional[int], Optional[int]]] = []
        for u in range(_nv(g1)):
            pairs.append((u, partial.get(u)))
        for v in range(_nv(g2)):
            if v not in used2:
                pairs.append((None, v))
        return cls(g1, g2, pairs)

    def _validate(self) -> None:
        seen1: set[int] = set()
        seen2: set[int] = set()
        n1, n2 = _nv(self.g1), _nv(self.g2)
        for u, v in self.pairs:
            if u is None and v is None:
                raise MappingError("mapping pair is dummy on both sides")
            if u is not None:
                if not 0 <= u < n1 or u in seen1:
                    raise MappingError(f"bad first-graph vertex {u}")
                seen1.add(u)
                self._forward[u] = v
            if v is not None:
                if not 0 <= v < n2 or v in seen2:
                    raise MappingError(f"bad second-graph vertex {v}")
                seen2.add(v)
        if len(seen1) != n1 or len(seen2) != n2:
            raise MappingError("mapping must cover all vertices of both graphs")

    # ------------------------------------------------------------------
    def image(self, u: int) -> Optional[int]:
        """The image of first-graph vertex ``u`` (None if paired to dummy)."""
        return self._forward[u]

    # ------------------------------------------------------------------
    # Costs under this mapping
    # ------------------------------------------------------------------
    def edit_cost(self) -> float:
        """Edit distance under this mapping (Definition 3).

        With closures as operands this is the minimum distance of
        Definition 9 *under this mapping*.
        """
        cost = 0.0
        for u, v in self.pairs:
            s1 = self.g1.label_set(u) if u is not None else DUMMY_SET
            s2 = self.g2.label_set(v) if v is not None else DUMMY_SET
            cost += uniform_set_distance(s1, s2)
        for s1, s2 in self._edge_pairs():
            cost += uniform_set_distance(s1, s2)
        return cost

    def similarity(self) -> float:
        """Similarity under this mapping (Definition 6)."""
        total = 0.0
        for u, v in self.pairs:
            if u is None or v is None:
                continue  # dummy pairings contribute 0
            total += uniform_set_similarity(self.g1.label_set(u),
                                            self.g2.label_set(v))
        for s1, s2 in self._edge_pairs():
            if s1 is not DUMMY_SET and s2 is not DUMMY_SET:
                total += uniform_set_similarity(s1, s2)
        return total

    def closure(self) -> GraphClosure:
        """The graph closure of the two graphs under this mapping (Def. 8)."""
        return closure_under_mapping(self.g1, self.g2, self.pairs,
                                     validated=True)

    # ------------------------------------------------------------------
    def _edge_pairs(self) -> Iterable[tuple[frozenset, frozenset]]:
        """Yield ``(label_set_1, label_set_2)`` for every edge pair of the
        extended graphs; an absent side is :data:`DUMMY_SET`."""
        backward: dict[int, int] = {}
        for u, v in self.pairs:
            if u is not None and v is not None:
                backward[v] = u
        g1, g2 = self.g1, self.g2
        for (a, b, s1) in _edge_iter(g1):
            va, vb = self._forward[a], self._forward[b]
            if va is not None and vb is not None and g2.has_edge(va, vb):
                yield (s1, g2.edge_label_set(va, vb))
            else:
                yield (s1, DUMMY_SET)
        for (x, y, s2) in _edge_iter(g2):
            a, b = backward.get(x), backward.get(y)
            if a is None or b is None or not g1.has_edge(a, b):
                yield (DUMMY_SET, s2)
            # else: already yielded from the g1 loop

    def __repr__(self) -> str:
        matched = sum(1 for u, v in self.pairs if u is not None and v is not None)
        return f"<GraphMapping pairs={len(self.pairs)} matched={matched}>"


def _nv(g: GraphLike) -> int:
    return g.num_vertices


def _edge_iter(g: GraphLike) -> Iterable[tuple[int, int, frozenset]]:
    """Iterate edges of a graph or closure as ``(u, v, label_set)``."""
    if isinstance(g, GraphClosure):
        yield from g.edges()
    else:
        for u, v, label in g.edges():
            yield (u, v, frozenset((label,)))


