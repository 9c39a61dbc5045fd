"""Bitset matching kernels: the one engine of the C-tree hot path.

This module runs the inner loops of pseudo subgraph isomorphism (Alg. 2)
and of its verifier (Ullmann) over int bitmasks, not Python sets:

- a *domain* (the candidate targets of one query vertex) is a single int
  with bit ``v`` set for each compatible target vertex,
- adjacency rows of the local/global bipartite graphs are masks,
- Theorem 1's local test runs on whole neighbour sets — one pass per
  distinct (compatible-edge rows, neighbour domain), not one test per
  (query vertex, candidate) pair,
- iteration uses ``b = m & -m`` / ``m ^= b`` lowest-set-bit peeling, and
- label compatibility is the two-word test of
  :func:`repro.graphs.labelspace.masks_match`.

The set-based references of Alg. 2 and of Ullmann's algorithm live with
the tests (``tests/oracles/pseudo_iso.py`` around ``reference_domains``,
``tests/oracles/ullmann.py`` around ``reference_embeddings``): every
kernel here must produce **bit-identical** domains, verdicts and
embeddings (``tests/test_kernels.py`` / ``test_ullmann.py`` fuzz that
equivalence, including ε and wildcard labels and edge-labeled graphs).

The kernels operate on compiled contexts: the target side of a pair is a
:class:`~repro.graphs.labelspace.TargetContext` (memoized per graph or
closure, so repeated node visits during a C-tree descent pay the encoding
cost once; a disk leaf graph's is compiled straight from its record by
``repro.ctree.store.decode_graph_context``), the query side a
:class:`QueryContext` — the label masks, neighbor tuples and edge-mask
rows only a query is asked for, plus its sparse histogram for the Alg. 3
dominance pre-filter.
"""

from __future__ import annotations

from operator import or_
from typing import Iterator, Optional, Sequence, Union

from repro.exceptions import ConfigError
from repro.graphs.closure import GraphLike
from repro.graphs.labelspace import (
    WILDCARD_BIT,
    LabelSummary,
    TargetContext,
    mask_ids,
    target_context,
)
from repro.obs.metrics import global_registry

__all__ = [
    "QueryContext",
    "compile_query",
    "resolve_level",
    "level0_domain_masks",
    "refine_bipartite_masks",
    "pseudo_domain_masks",
    "semi_perfect_masks",
    "global_semi_perfect_masks",
    "neighbor_rows",
    "embeddings_masks",
    "histogram_dominates",
    "masks_to_domains",
    "domains_to_masks",
]

Level = Union[int, str]

MAX_LEVEL = "max"

#: hot-path counters (the set-based references tick the same names, so a
#: differential test can compare their work)
_C_DOMAIN_CALLS = global_registry().counter("matching.pseudo_iso.domain_calls")
_C_REFINE_ROUNDS = global_registry().counter(
    "matching.pseudo_iso.refine_rounds"
)
#: kernel-only: candidate bits decided one at a time (a comparison or a Kuhn
#: matching), and reach passes run, by ``refine_bipartite_masks``
_C_LOCAL_TESTS = global_registry().counter("matching.pseudo_iso.local_tests")
_C_REACH_PASSES = global_registry().counter(
    "matching.pseudo_iso.reach_passes")
_C_ULLMANN_CALLS = global_registry().counter("matching.ullmann.calls")
_C_ULLMANN_NODES = global_registry().counter("matching.ullmann.search_nodes")


def resolve_level(level: Level, n1: int, n2: int) -> int:
    """Number of refinement rounds for a requested level (Theorem 2 bounds
    convergence by ``n1 * n2``)."""
    if level == MAX_LEVEL:
        return n1 * n2
    if isinstance(level, int) and level >= 0:
        return level
    raise ConfigError(f"level must be a non-negative int or 'max', got {level!r}")


# ----------------------------------------------------------------------
# Domain representation converters
# ----------------------------------------------------------------------
def masks_to_domains(masks: Sequence[int]) -> list[set[int]]:
    """Bitmask domains -> the set-of-ints representation of pseudo_iso."""
    return [set(mask_ids(m)) for m in masks]


def domains_to_masks(domains: Sequence[set[int]]) -> list[int]:
    """Set-of-ints domains -> bitmasks."""
    return [sum(1 << v for v in d) for d in domains]


# ----------------------------------------------------------------------
# Semi-perfect matching over bitmask rows (Kuhn augmenting paths)
# ----------------------------------------------------------------------
def _augment(i: int, rows: Sequence[int], owner: dict[int, int],
             seen: list[int]) -> int:
    """Kuhn's augmenting path from left vertex ``i`` (``seen[0]``: the right
    bits already visited): the right bit it newly matches, 0 if none.  A
    module-level function, not a closure: a closure that calls itself is a
    reference cycle, and this runs hundreds of times per query."""
    m = rows[i] & ~seen[0]
    while m:
        b = m & -m
        seen[0] |= b
        j = owner.get(b)
        end = b if j is None else _augment(j, rows, owner, seen)
        if end:
            owner[b] = i
            return end
        m = rows[i] & ~seen[0]
    return 0


def semi_perfect_masks(rows: Sequence[int]) -> bool:
    """True iff a matching saturates every row.

    ``rows[i]`` is the neighbor bitmask of left vertex ``i`` over an
    arbitrary right-side bit space.  Greedy seeding plus Kuhn augmenting
    paths; right vertices are tracked by their bit value directly so no
    ``bit_length`` is needed in the inner loop.
    """
    owner: dict[int, int] = {}  # right bit -> matched left index
    taken = 0
    for i, row in enumerate(rows):
        free = row & ~taken
        if free:
            b = free & -free
            owner[b] = i
        else:
            b = _augment(i, rows, owner, [0])
            if not b:
                return False
        taken |= b
    return True


def global_semi_perfect_masks(domains: Sequence[int]) -> bool:
    """Definition 13 acceptance test over bitmask domains."""
    union = 0
    for d in domains:
        if not d:
            return False
        union |= d
    if union.bit_count() < len(domains):
        return False
    return semi_perfect_masks(domains)


# ----------------------------------------------------------------------
# Level-0 seeding and RefineBipartite over masks
# ----------------------------------------------------------------------
def level0_domain_masks(q: "QueryContext", t: TargetContext) -> list[int]:
    """Alg. 2 init: ``attr(u) ∩ attr(v) != ∅`` as bitmask domains.

    Target vertices are pre-grouped by label mask, so the work per
    *distinct* query label mask is one pass over distinct target masks.
    """
    groups = t.vertex_groups
    cache: dict[int, int] = {}
    out: list[int] = []
    for qm in q.vertex_masks:
        m = cache.get(qm)
        if m is None:
            m = 0
            for tm, members in groups:
                if (qm & tm) | ((qm | tm) & WILDCARD_BIT):
                    m |= members
            cache[qm] = m
        out.append(m)
    return out


def neighbor_rows(q: "QueryContext", t: TargetContext) -> list[list[tuple]]:
    """Per query vertex ``u``, a ``(u2, key, rows)`` triple per neighbour
    ``u2``: ``rows[v]`` is the bitset of ``v``'s neighbours over an edge
    compatible with ``(u, u2)``'s label, so Alg. 2's local test and Ullmann's
    support and consistency tests all read ``rows`` against a domain.  Rows
    are memoised on the target under ``key``, the query edge mask cut to the
    bits that can matter there — as many entries as the target has edge
    labels, not the query.  A key compatible with one target edge mask
    gets that mask's ``edge_rows`` list itself; only a wildcard or a label
    set ORs several."""
    memo, edge_rows = t.nbr_rows, t.edge_rows
    live = WILDCARD_BIT
    for em in edge_rows:
        live |= em
    out = []
    for erow in q.edge_masks:
        pairs = []
        for u2, qe in erow.items():
            qe &= live
            rows = memo.get(qe)
            if rows is None:
                hits = [r for em, r in edge_rows.items()
                        if (qe & em) | ((qe | em) & WILDCARD_BIT)]
                rows = hits[0] if hits else [0] * t.n
                for hit in hits[1:]:  # a new list: edge_rows stay intact
                    rows = list(map(or_, rows, hit))
                memo[qe] = rows  # published complete: readers never wait
            pairs.append((u2, qe, rows))
        out.append(pairs)
    return out


class _Reach(dict):
    """``self[key, d] -> (one, two, three)``: the target vertices with at
    least one / two / three neighbours over ``nbr_rows[key]`` inside domain
    ``d``, found in one pass over the bits of ``d``: every row list is
    symmetric (an undirected edge carries one label and compatibility is
    symmetric), so ``{v : rows[v] & d} = OR of rows[w] for w in d``.  A pure
    function of ``(key, d)`` on one target, memoised for one kernel call: it
    serves every round of Alg. 2 and every sweep of Ullmann's fixpoint."""

    __slots__ = ("rows",)

    def __init__(self, t: TargetContext) -> None:
        self.rows = t.nbr_rows

    def __missing__(self, at: tuple[int, int]) -> tuple[int, int, int]:
        key, d = at
        rows = self.rows[key]
        one = two = three = 0
        while d:
            b = d & -d
            d ^= b
            row = rows[b.bit_length() - 1]
            three |= two & row
            two |= one & row
            one |= row
        self[at] = found = (one, two, three)
        return found


def _local_test(cand: int, constraints: list[tuple[int, int]],
                reach: _Reach, t: TargetContext) -> tuple[int, int]:
    """Theorem 1's local test for every bit of ``cand`` at once: the bits
    ``v`` whose neighbourhood takes a matching of the query vertex's
    ``constraints`` — a ``(row key, previous domain)`` per query neighbour —
    and how many of them had to be decided one at a time.

    Hall's condition on the reach sets wherever it is a set operation: one
    constraint needs one neighbour; two need one each and, where neither has
    two, not the same one; three sets of sorted sizes >= 1, 2, 3 are
    saturated greedily.  A Kuhn matching for what is left, after the ones
    and the degree mask have thinned it."""
    k = len(constraints)
    hits = [reach[c] for c in constraints]
    new = cand
    for one, _, _ in hits:
        new &= one
    if k == 1:
        return new, 0
    rows = reach.rows
    tests = 0
    if k == 2:
        (_, a2, _), (_, b2, _) = hits
        (ka, pa), (kb, pb) = constraints
        if ka == kb and pa == pb:
            return new & a2, 0
        ra, rb = rows[ka], rows[kb]
        m = new & ~(a2 | b2)  # one neighbour each: is it the same one?
        while m:
            b = m & -m
            m ^= b
            v = b.bit_length() - 1
            tests += 1
            if ra[v] & pa == rb[v] & pb:
                new ^= b
        return new, tests
    m = new = new & t.at_least(k)
    if k == 3:
        (_, a2, a3), (_, b2, b3), (_, c2, c3) = hits
        m &= ~((a3 | b3 | c3) & (a2 & b2 | a2 & c2 | b2 & c2))
    while m:
        b = m & -m
        m ^= b
        v = b.bit_length() - 1
        tests += 1
        if not semi_perfect_masks([rows[key][v] & d
                                   for key, d in constraints]):
            new ^= b
    return new, tests


def refine_bipartite_masks(
    q: "QueryContext",
    t: TargetContext,
    domains: list[int],
    level: Level,
) -> list[int]:
    """``RefineBipartite`` (Alg. 2) over bitmask domains.

    Mirrors the set-based reference exactly: synchronous per-round
    snapshots (Theorem 1's level semantics) and an immediate return as soon
    as any domain empties — the query is already proven incompatible, so
    finishing the round buys nothing.  Mutates and returns ``domains``.

    A query vertex's refined domain depends only on its own domain and its
    neighbours' ``(row key, previous domain)`` constraints, so it is decided
    by :func:`_local_test` once per distinct such class per call.
    """
    rounds = resolve_level(level, q.n, t.n)
    nrows = neighbor_rows(q, t) if rounds else ()
    reach = _Reach(t)
    decided: dict[tuple, int] = {}
    tests = 0
    try:
        for _ in range(rounds):
            previous = domains[:]  # masks are immutable ints: a copy
            _C_REFINE_ROUNDS.value += 1
            changed = False
            for u, pairs in enumerate(nrows):
                if not pairs:
                    continue  # isolated query vertex: no local constraint
                cand = domains[u]
                constraints = sorted(
                    [(key, previous[u2]) for u2, key, _ in pairs])
                case = (cand, *constraints)
                new = decided.get(case)
                if new is None:
                    new, n = _local_test(cand, constraints, reach, t)
                    decided[case] = new
                    tests += n
                if new != cand:
                    domains[u] = new
                    changed = True
                    if not new:
                        return domains  # provably failed: stop refining
            if not changed:
                break
        return domains
    finally:
        _C_LOCAL_TESTS.value += tests
        _C_REACH_PASSES.value += len(reach)


def pseudo_domain_masks(
    q: "QueryContext",
    t: TargetContext,
    level: Level,
) -> list[int]:
    """The level-``level`` pseudo-compatibility domains as bitmasks
    (bit-identical to the set-based ``reference_domains`` oracle)."""
    _C_DOMAIN_CALLS.value += 1
    domains = level0_domain_masks(q, t)
    if not all(domains):
        return domains
    return refine_bipartite_masks(q, t, domains, level)


# ----------------------------------------------------------------------
# Ullmann on the compiled contexts
# ----------------------------------------------------------------------
def embeddings_masks(
    q: "QueryContext",
    t: TargetContext,
    domains: Optional[Sequence[int]] = None,
    limit: Optional[int] = None,
) -> Iterator[dict[int, int]]:
    """Ullmann's algorithm over bitmask domains: the embeddings of the
    set-based ``reference_embeddings`` oracle in the same order.  The
    refinement fixpoint is unique; ``select_next`` reads only which vertices
    are assigned and the refined domain sizes, so its order is fixed before
    the search; consistency with assigned neighbours is folded into the
    candidate mask, so each bit popped is an assignment the reference makes.
    """
    _C_ULLMANN_CALLS.value += 1
    n1 = q.n
    if n1 == 0:
        yield {}
        return
    if n1 > t.n:
        return
    if domains is None:  # label-compatible targets of sufficient degree
        domains = [m & t.at_least(d) for m, d in
                   zip(level0_domain_masks(q, t), q.ctx.degrees)]
    else:
        domains = list(domains)
    if not all(domains):
        return
    nrows = neighbor_rows(q, t)
    reach = _Reach(t)
    changed = True
    while changed:
        changed = False
        for u, pairs in enumerate(nrows):
            new = domains[u]
            for u2, key, _ in pairs:  # supported by every neighbour's domain
                new &= reach[key, domains[u2]][0]
            if new != domains[u]:
                domains[u] = new
                changed = True
                if not new:
                    return

    # select_next: adjacent to the assigned, fewest candidates, lowest index
    sizes = [d.bit_count() for d in domains]
    order: list[int] = []
    free, near = set(range(n1)), set()
    while free:
        order.append(min(free, key=lambda u: (u not in near, sizes[u], u)))
        free.discard(order[-1])
        near.update(q.neighbors[order[-1]])
    position = {u: i for i, u in enumerate(order)}
    #: per search depth: (depth of an earlier-assigned neighbour, its rows)
    back = [[(position[u2], rows) for u2, _, rows in nrows[u]
             if position[u2] < i] for i, u in enumerate(order)]

    last = n1 - 1
    cands = [domains[order[0]]] + [0] * last
    image = [0] * n1
    used = found = depth = 0
    nodes = 1
    try:
        while True:
            m = cands[depth]
            if m:
                b = m & -m  # candidates in ascending vertex order
                cands[depth] = m ^ b
                nodes += 1
                image[depth] = b.bit_length() - 1
                if depth < last:
                    used |= b
                    depth += 1
                    m = domains[order[depth]] & ~used
                    for i, rows in back[depth]:
                        m &= rows[image[i]]
                    cands[depth] = m
                    continue
                found += 1
                yield dict(zip(order, image))
            elif depth == 0:
                return
            else:
                depth -= 1
                used ^= 1 << image[depth]
            # a candidate's subtree is done: the reference's limit check
            if limit is not None and found >= limit:
                return
    finally:
        _C_ULLMANN_NODES.value += nodes


# ----------------------------------------------------------------------
# Compiled query contexts
# ----------------------------------------------------------------------
class QueryContext:
    """Everything target-independent about one query, compiled once: the
    query side of every kernel call.

    ``vertex_masks`` (label mask per vertex), ``neighbors`` (tuple per
    vertex) and ``edge_masks`` (per vertex, edge label mask towards each
    neighbor), plus the sparse histogram of ``ctx``, the query's own
    :class:`TargetContext`, for the Alg. 3 dominance pre-filter.  Build
    with :func:`compile_query`; instances are immutable and reusable
    across an entire tree descent (and across trees).
    """

    __slots__ = ("query", "ctx", "level", "n", "vertex_masks", "neighbors",
                 "edge_masks", "vhist_items", "ehist_items", "vbits",
                 "ebits")

    def __init__(self, query: GraphLike, ctx: TargetContext,
                 level: Level) -> None:
        self.query = query
        self.ctx = ctx
        self.level = level
        self.n = ctx.n
        adjacency = [query.adjacency(v) for v in range(ctx.n)]
        self.vertex_masks = ctx.vmasks
        self.neighbors = [tuple(adj) for adj in adjacency]
        self.edge_masks = [{w: ctx.edge_masks[label]
                            for w, label in adj.items()} for adj in adjacency]
        self.vhist_items = tuple(ctx.vhist.items())
        self.ehist_items = tuple(ctx.ehist.items())
        self.vbits = ctx.vbits
        self.ebits = ctx.ebits

    # ------------------------------------------------------------------
    def domain_masks(self, target: GraphLike, level: Level = None) -> list[int]:
        """Pseudo-compatibility domains against ``target`` as bitmasks."""
        return pseudo_domain_masks(
            self, target_context(target),
            self.level if level is None else level,
        )

    def domains(self, target: GraphLike, level: Level = None) -> list[set[int]]:
        """Pseudo-compatibility domains as sets (Ullmann-seed format)."""
        return masks_to_domains(self.domain_masks(target, level))

    def __repr__(self) -> str:
        return f"<QueryContext |V|={self.n} level={self.level!r}>"


def compile_query(query: GraphLike, level: Level = 1) -> QueryContext:
    """Compile ``query`` into an immutable :class:`QueryContext`."""
    resolve_level(level, query.num_vertices, query.num_vertices)  # validate
    return QueryContext(query, target_context(query), level)


def histogram_dominates(t: LabelSummary, q: QueryContext) -> bool:
    """Does the target's label histogram dominate the query's?

    ``LabelSummary.dominates`` against a compiled query: a one-word
    presence-mask reject first, then per-label count comparisons over the
    query's sparse entries.  (The presence check also
    guarantees every query label id is a key of the target's maps.)
    """
    if (q.vbits & ~t.vbits) or (q.ebits & ~t.ebits):
        return False
    th = t.vhist
    for i, c in q.vhist_items:
        if th[i] < c:
            return False
    th = t.ehist
    for i, c in q.ehist_items:
        if th[i] < c:
            return False
    return True
