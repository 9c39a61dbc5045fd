"""Upper bound on graph similarity (Eqn. 7).

``Sim(G1, G2) <= Sim(V1, V2) + Sim(E1, E2)``: the vertex sets and edge sets
are matched independently (ignoring structure), which can only increase the
achievable similarity.  The bound is used

- to prune the branch-and-bound state search (Section 4.1),
- as ``Sim_up`` in the K-NN traversal (Alg. 4), where the closure variant
  upper-bounds the similarity of the query to *any* graph below a node, and
- as the normalizer of the mapping-quality experiment (Fig. 10).

Under the paper's uniform 0/1 measure the set similarities are
maximum-cardinality matchings, computed here without building an explicit
matching: intersect label histograms (plain labels), or push a maximum
flow between the classes of equal label sets.
"""

from __future__ import annotations

from typing import Sequence

from repro.graphs.closure import GraphLike
from repro.graphs.labelspace import WILDCARD_BIT, LabelSummary, label_context


def sim_upper_bound(g1: GraphLike, g2: GraphLike) -> float:
    """Eqn. (7): ``Sim(V1,V2) + Sim(E1,E2)``."""
    return SimilarityQueryContext(g1).sim_upper_bound(g2)


def _mask_counts(g: GraphLike) -> tuple[Sequence, Sequence]:
    """A graph or closure as the two multisets Eqn. (7) matches:
    ``(label mask, occurrences)`` pairs for vertices and for edges."""
    ctx = label_context(g)
    return ([(m, members.bit_count()) for m, members in ctx.vertex_groups],
            ctx.edge_counts)


def _matching_value(counts1: Sequence[tuple[int, int]],
                    counts2: Sequence[tuple[int, int]]) -> int:
    """``Sim(V1, V2)`` (or ``Sim(E1, E2)``) on compiled sides: the maximum
    matching between two multisets of (distinct) label masks, elements
    pairable iff their masks share a bit."""
    if all(m & (m - 1) == 0 for m, _ in (*counts1, *counts2)):
        # Plain labels: the size of the multiset intersection.
        there = dict(counts2)
        return sum(min(count, there.get(m, 0)) for m, count in counts1)
    # Elements of one class are interchangeable, so the matching is a
    # maximum flow between the *classes*: ``supply[i]`` units leave class
    # i of side 1, ``room[j]`` fit into class j of side 2, any number
    # cross between two classes whose masks share a bit.
    supply = [count for _, count in counts1]
    room = [count for _, count in counts2]
    pairable = [[j for j, (m2, _) in enumerate(counts2) if m1 & m2]
                for m1, _ in counts1]
    into: list[dict[int, int]] = [{} for _ in counts2]  # j -> {i: units}

    def push(i: int, limit: int, seen: set[int]) -> int:
        """Send up to ``limit`` units from class i along one augmenting
        path; returns the units sent."""
        for j in pairable[i]:
            sent = min(limit, room[j])
            if sent:
                room[j] -= sent
                into[j][i] = into[j].get(i, 0) + sent
                return sent
        for j in pairable[i]:
            if j in seen:
                continue
            seen.add(j)
            held = into[j]
            # A full class takes i's units if another class it holds
            # units of can send them elsewhere.
            for other, units in held.items():
                sent = (units and other != i
                        and push(other, min(limit, units), seen))
                if sent:
                    held[other] -= sent
                    held[i] = held.get(i, 0) + sent
                    return sent
        return 0

    matched = 0
    for i in range(len(supply)):
        while supply[i]:
            sent = push(i, supply[i], set())
            if not sent:
                break
            supply[i] -= sent
            matched += sent
    return matched


class _QuerySide:
    """One of a query's two label multisets, as Eqn. (7) reads it against
    a histogram."""

    __slots__ = ("counts", "plain", "wild")

    def __init__(self, counts: Sequence[tuple[int, int]]) -> None:
        #: (label mask, occurrences) pairs
        self.counts = counts
        #: elements carrying the wildcard, which no histogram counts
        self.wild = 0
        #: with plain labels only: (label id, occurrences) of the others
        self.plain = plain = []
        for m, count in counts:
            if m & WILDCARD_BIT:
                self.wild += count
            if m & (m - 1):
                self.plain = None
            elif m != WILDCARD_BIT:
                plain.append((m.bit_length() - 1, count))

    def matched_histogram(self, hist: dict[int, int]) -> int:
        """The matching against a plain graph's label histogram.  That
        leaves wildcard-labelled elements out: the graph's go uncounted,
        each of the query's is taken as matched — sound for both bounds,
        and exact when neither side has any."""
        matched = self.wild
        if self.plain is None:
            return matched + _matching_value(
                self.counts, [(1 << i, c) for i, c in hist.items()])
        for i, count in self.plain:
            there = hist.get(i)
            if there:
                matched += count if count < there else there
        return matched


class SimilarityQueryContext:
    """Query-side precomputation for similarity/distance bounds.

    The K-NN and range traversals evaluate Eqn. (7) bounds against every
    child of every expanded node; what they read of the query — its
    label masks as two multisets — never changes, so it is extracted
    once here.  A *target* is a graph, a closure, or the ``LabelSummary``
    of a plain graph: a leaf entry, bounded before its graph is loaded.
    Every value is the maximum matching between the two label-set lists
    (between plain graphs, the histogram intersection); the set form the
    tests hold it to is ``tests/oracles/bounds.py``.
    """

    __slots__ = ("query", "num_vertices", "num_edges", "_v", "_e", "_sides")

    def __init__(self, query: GraphLike) -> None:
        self.query = query
        self.num_vertices = query.num_vertices
        self.num_edges = query.num_edges
        self._v, self._e = _mask_counts(query)
        self._sides = None  # built when the first summary is met

    def _matched(self, target) -> tuple[int, int]:
        """``(Sim(V, V'), Sim(E, E'))`` against ``target``."""
        if isinstance(target, LabelSummary):
            sides = self._sides
            if sides is None:
                sides = self._sides = _QuerySide(self._v), _QuerySide(self._e)
            return (sides[0].matched_histogram(target.vhist),
                    sides[1].matched_histogram(target.ehist))
        v, e = _mask_counts(target)
        return _matching_value(self._v, v), _matching_value(self._e, e)

    def sim_upper_bound(self, target) -> float:
        """Eqn. (7) against ``target``."""
        v, e = self._matched(target)
        return float(v + e)

    def distance_lower_bound(self, target) -> float:
        """:func:`distance_lower_bound` against ``target``."""
        v, e = self._matched(target)
        if isinstance(target, LabelSummary):
            nv, ne = sum(target.vhist.values()), sum(target.ehist.values())
        else:
            nv, ne = target.num_vertices, target.num_edges
        return float(max(self.num_vertices, nv) - v
                     + max(self.num_edges, ne) - e)

    def closure_distance_lower_bound(self, closure) -> float:
        """Lower bound on the query's distance to any graph contained in
        ``closure`` (the range-query pruning bound)."""
        v, e = self._matched(closure)
        v_cost = max(self.num_vertices, closure.min_num_vertices()) - v
        e_cost = max(self.num_edges, closure.min_num_edges()) - e
        return float(max(0, v_cost) + max(0, e_cost))

    def __repr__(self) -> str:
        return (f"<SimilarityQueryContext |V|={self.num_vertices} "
                f"|E|={self.num_edges}>")


def norm(g: GraphLike) -> float:
    """Edit distance to the null graph under the uniform measure:
    every vertex and edge must be inserted, costing 1 each."""
    return float(g.num_vertices + g.num_edges)


def distance_lower_bound(g1: GraphLike, g2: GraphLike) -> float:
    """A cheap lower bound on graph edit distance under the uniform measure.

    Derived from Eqn. (7): any mapping pays at least
    ``max(|V1|,|V2|) - Sim(V1,V2)`` on vertices and analogously on edges
    (unmatched or mismatched elements cost at least 1 each).
    """
    return SimilarityQueryContext(g1).distance_lower_bound(g2)


__all__ = [
    "sim_upper_bound",
    "SimilarityQueryContext",
    "norm",
    "distance_lower_bound",
]
