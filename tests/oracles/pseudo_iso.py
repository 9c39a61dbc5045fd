"""The set-based reference of pseudo subgraph isomorphism (Alg. 2).

:func:`level0_domains`, :func:`refine_bipartite`, :func:`reference_domains`
and :func:`global_semi_perfect` are the readable form of the algorithm
that ``repro.matching.kernels`` runs on bitmasks; the differential tests
and ``bench_kernels.py`` hold the kernels to them, domain for domain.
"""

from __future__ import annotations

from repro.graphs.closure import GraphLike
from repro.matching.kernels import resolve_level as _resolve_level
from repro.matching.pseudo_iso import Level
from repro.obs.metrics import global_registry

from oracles.bipartite import has_semi_perfect_matching
from oracles.graphs import labels_match

#: the kernels' counters, ticked alike so a test can compare work
_C_DOMAIN_CALLS = global_registry().counter("matching.pseudo_iso.domain_calls")
_C_REFINE_ROUNDS = global_registry().counter(
    "matching.pseudo_iso.refine_rounds"
)


def level0_domains(query: GraphLike, target: GraphLike) -> list[set[int]]:
    """Level-0 compatibility: ``attr(u) ∩ attr(v) != ∅`` (Alg. 2 init)."""
    target_sets = [target.label_set(v) for v in target.vertices()]
    domains = []
    for u in query.vertices():
        s1 = query.label_set(u)
        domains.append(
            {v for v, s2 in enumerate(target_sets) if labels_match(s1, s2)}
        )
    return domains


def refine_bipartite(
    query: GraphLike,
    target: GraphLike,
    domains: list[set[int]],
    level: Level,
) -> list[set[int]]:
    """``RefineBipartite`` of Alg. 2: iteratively clear ``(u, v)`` entries
    whose local neighborhood bipartite graph has no semi-perfect matching.

    Mutates and returns ``domains`` (``domains[u]`` is the set of target
    vertices still compatible with query vertex ``u``).
    """
    rounds = _resolve_level(level, query.num_vertices, target.num_vertices)
    query_neighbors = [list(query.neighbors(u)) for u in query.vertices()]
    target_neighbors = [list(target.neighbors(v)) for v in target.vertices()]

    for _ in range(rounds):
        # Theorem 1 defines level-n compatibility in terms of level-(n-1)
        # compatibility, so each round evaluates against a snapshot of the
        # previous round (synchronous update).  In-place updates would
        # over-refine within a round and break the level semantics of
        # Fig. 5, though the convergence fixpoint is the same.
        previous = [set(d) for d in domains]
        _C_REFINE_ROUNDS.value += 1
        changed = False
        for u, candidates in enumerate(domains):
            if not query_neighbors[u]:
                continue  # isolated query vertex: no local constraint
            dropped = []
            for v in candidates:
                if not _local_semi_perfect(
                    query, target, u, v,
                    query_neighbors[u], target_neighbors[v], previous,
                ):
                    dropped.append(v)
            if dropped:
                candidates.difference_update(dropped)
                changed = True
                if not candidates:
                    # An empty domain proves the query incompatible;
                    # finishing the round (or further rounds) cannot
                    # change any caller-visible outcome.
                    return domains
        if not changed:
            break
    return domains


def _local_semi_perfect(
    query: GraphLike,
    target: GraphLike,
    u: int,
    v: int,
    nbrs1: list[int],
    nbrs2: list[int],
    domains: list[set[int]],
) -> bool:
    """Theorem 1's local test: can N(u) be matched into N(v) respecting the
    current compatibility domains and edge-label compatibility?"""
    if len(nbrs1) > len(nbrs2):
        return False
    right_index = {v2: j for j, v2 in enumerate(nbrs2)}
    adjacency: list[list[int]] = []
    for u2 in nbrs1:
        edge1 = query.edge_label_set(u, u2)
        candidates = domains[u2]
        row = [
            right_index[v2]
            for v2 in nbrs2
            if v2 in candidates
            and labels_match(edge1, target.edge_label_set(v, v2))
        ]
        if not row:
            return False
        adjacency.append(row)
    return has_semi_perfect_matching(len(nbrs1), len(nbrs2), adjacency)


def reference_domains(
    query: GraphLike,
    target: GraphLike,
    level: Level,
) -> list[set[int]]:
    """The set-based reference of :func:`pseudo_compatibility_domains`:
    level-0 seeding, then ``RefineBipartite`` unless a domain is empty."""
    _C_DOMAIN_CALLS.value += 1
    domains = level0_domains(query, target)
    if any(not d for d in domains):
        return domains
    return refine_bipartite(query, target, domains, level)


def global_semi_perfect(domains: list[set[int]], n_target: int) -> bool:
    """Definition 13's acceptance test over set domains: the reference of
    ``kernels.global_semi_perfect_masks``."""
    return has_semi_perfect_matching(
        len(domains), n_target, [sorted(d) for d in domains])
