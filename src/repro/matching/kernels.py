"""Bitset matching kernels for the C-tree hot path.

This module reimplements the inner loops of pseudo subgraph isomorphism
(Alg. 2) over int bitmasks instead of Python sets:

- a *domain* (the candidate targets of one query vertex) is a single int
  with bit ``v`` set for each compatible target vertex,
- adjacency rows of the local/global bipartite graphs are masks,
- iteration uses ``b = m & -m`` / ``m ^= b`` lowest-set-bit peeling, and
- label compatibility is the two-word test of
  :func:`repro.graphs.labelspace.masks_match`.

The set-based implementations in :mod:`repro.matching.pseudo_iso` are kept
as the differential-testing reference: every kernel here must produce
**bit-identical** domains and verdicts (``tests/test_kernels.py`` fuzzes
that equivalence, including ε and wildcard labels and edge-labeled graphs).

The kernels operate on compiled contexts: the target side of a pair is a
:class:`~repro.graphs.labelspace.TargetContext` (memoized per graph or
closure, so repeated node visits during a C-tree descent pay the encoding
cost once), the query side a :class:`QueryContext` — the label masks,
neighbor tuples and edge-mask rows only a query is asked for, plus its
sparse histogram for the Alg. 3 dominance pre-filter.

Kernels are always on in production; :func:`use_kernels` /
:func:`set_kernels_enabled` switch to the set-based reference only so the
differential tests and ``bench_kernels.py`` can assert identical candidate
and answer sets.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Sequence, Union

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
    "kernels_enabled",
    "set_kernels_enabled",
    "use_kernels",
    "resolve_level",
    "level0_domain_masks",
    "refine_bipartite_masks",
    "pseudo_domain_masks",
    "semi_perfect_masks",
    "global_semi_perfect_masks",
    "histogram_dominates",
    "masks_to_domains",
    "domains_to_masks",
]

Level = Union[int, str]

MAX_LEVEL = "max"

#: shared hot-path counters (same registry names as the set-based path,
#: so `repro metrics` reports are mode-independent)
_C_DOMAIN_CALLS = global_registry().counter("matching.pseudo_iso.domain_calls")
_C_REFINE_ROUNDS = global_registry().counter(
    "matching.pseudo_iso.refine_rounds"
)

_USE_KERNELS = True


def kernels_enabled() -> bool:
    """Are the bitset kernels the active pseudo-isomorphism engine?"""
    return _USE_KERNELS


def set_kernels_enabled(enabled: bool) -> bool:
    """Toggle the kernels on/off; returns the previous setting."""
    global _USE_KERNELS
    previous = _USE_KERNELS
    _USE_KERNELS = bool(enabled)
    return previous


@contextmanager
def use_kernels(enabled: bool) -> Iterator[None]:
    """Temporarily force the kernel (or reference) path — used by the
    differential tests and the kernel microbenchmark."""
    previous = set_kernels_enabled(enabled)
    try:
        yield
    finally:
        set_kernels_enabled(previous)


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
def semi_perfect_masks(rows: Sequence[int]) -> bool:
    """True iff a matching saturates every row.

    ``rows[i]`` is the neighbor bitmask of left vertex ``i`` over an
    arbitrary right-side bit space.  Greedy seeding plus Kuhn augmenting
    paths; right vertices are tracked by their bit value directly so no
    ``bit_length`` is needed in the inner loop.
    """
    owner: dict[int, int] = {}  # right bit -> matched left index
    taken = 0
    visited = 0

    def augment(i: int) -> bool:
        nonlocal taken, visited
        m = rows[i] & ~visited
        while m:
            b = m & -m
            visited |= b
            j = owner.get(b)
            if j is None or augment(j):
                owner[b] = i
                taken |= b
                return True
            m = rows[i] & ~visited
        return False

    for i, row in enumerate(rows):
        free = row & ~taken
        if free:
            b = free & -free
            owner[b] = i
            taken |= b
            continue
        visited = 0
        if not augment(i):
            return False
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
    """
    rounds = resolve_level(level, q.n, t.n)
    q_neighbors = q.neighbors
    q_edge_masks = q.edge_masks
    t_groups = t.edge_groups
    t_degrees = t.degrees

    for _ in range(rounds):
        previous = domains[:]  # masks are immutable ints: snapshot is a copy
        _C_REFINE_ROUNDS.value += 1
        changed = False
        for u in range(q.n):
            unbrs = q_neighbors[u]
            if not unbrs:
                continue  # isolated query vertex: no local constraint
            deg_u = len(unbrs)
            erow = q_edge_masks[u]
            cand = domains[u]
            new = cand
            m = cand
            while m:
                b = m & -m
                m ^= b
                v = b.bit_length() - 1
                if deg_u > t_degrees[v]:
                    new ^= b
                    continue
                # Theorem 1's local test: rows of the N(u) x N(v) bipartite
                # graph, restricted to the previous round's domains and to
                # edge-label-compatible pairs.
                groups = t_groups[v]
                rows: list[int] = []
                ok = True
                for u2 in unbrs:
                    qe = erow[u2]
                    row = 0
                    for em, members in groups:
                        if (qe & em) | ((qe | em) & WILDCARD_BIT):
                            row |= members
                    row &= previous[u2]
                    if not row:
                        ok = False
                        break
                    rows.append(row)
                if not ok or not semi_perfect_masks(rows):
                    new ^= b
            if new != cand:
                domains[u] = new
                changed = True
                if not new:
                    return domains  # provably failed: stop refining
        if not changed:
            break
    return domains


def pseudo_domain_masks(
    q: "QueryContext",
    t: TargetContext,
    level: Level,
) -> list[int]:
    """The level-``level`` pseudo-compatibility domains as bitmasks
    (kernel equivalent of ``pseudo_compatibility_domains``)."""
    _C_DOMAIN_CALLS.value += 1
    domains = level0_domain_masks(q, t)
    if not all(domains):
        return domains
    return refine_bipartite_masks(q, t, domains, level)


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

    Bit-identical to ``LabelHistogram.dominates`` on histograms of the same
    objects: a one-word presence-mask reject first, then per-label count
    comparisons over the query's sparse entries.  (The presence check also
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
