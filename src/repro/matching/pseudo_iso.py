"""Pseudo subgraph isomorphism (Section 6.1, Algorithm 2).

The polynomial-time approximation of subgraph isomorphism that powers
C-tree pruning.  Vertex ``u`` of the query is *level-n pseudo compatible*
to vertex ``v`` of the target when the level-n adjacent subtree of ``u``
embeds in that of ``v``; by Theorem 1 this is computed recursively: ``u`` is
level-n compatible to ``v`` iff their labels intersect and the bipartite
graph between their neighborhoods restricted to level-(n-1)-compatible pairs
has a semi-perfect matching.

The query is level-n pseudo sub-isomorphic to the target when the global
bipartite compatibility graph has a semi-perfect matching (Definition 13).
Lemma 1 guarantees no false negatives: a real embedding survives every
refinement level, so pruning on a negative answer is always sound.

Note on the source text: the OCR of Alg. 2 shows the local bipartite graph
built from ``B = 0`` entries; the intended (and implemented) construction
uses ``B'[u',v'] = 1 iff B[u',v'] = 1``, which is what Theorem 1 states.

``level`` may be an ``int`` or the string ``"max"``; the latter iterates
``RefineBipartite`` to convergence, which Theorem 2 bounds by ``n1 * n2``
rounds.

:func:`pseudo_compatibility_domains` and :func:`pseudo_subgraph_isomorphic`
run the bitmask kernels of :mod:`repro.matching.kernels` (the algorithm
compiled onto int bitsets and cached per-graph contexts).  The set-based
functions here — :func:`level0_domains`, :func:`refine_bipartite`,
:func:`reference_domains` and :func:`global_semi_perfect` — are the
readable reference of the same algorithm.  No product code calls them;
the differential tests and ``bench_kernels.py`` hold the kernels to them,
domain for domain.
"""

from __future__ import annotations

from typing import Union

from repro.graphs.closure import GraphLike, labels_match
from repro.graphs.labelspace import target_context
from repro.matching import kernels
from repro.matching.bipartite import has_semi_perfect_matching
from repro.matching.kernels import MAX_LEVEL, resolve_level as _resolve_level
from repro.obs.metrics import global_registry

Level = Union[int, str]

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


def pseudo_compatibility_domains(
    query: GraphLike,
    target: GraphLike,
    level: Level = 1,
) -> list[set[int]]:
    """The level-``level`` pseudo-compatibility matrix as candidate sets.

    This is also a valid (conservative) seed for Ullmann's algorithm — the
    Section 6.2 acceleration.
    """
    return kernels.masks_to_domains(kernels.pseudo_domain_masks(
        kernels.compile_query(query, level), target_context(target), level))


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


def pseudo_subgraph_isomorphic(
    query: GraphLike,
    target: GraphLike,
    level: Level = 1,
) -> bool:
    """Algorithm 2: is ``query`` level-``level`` pseudo sub-isomorphic to
    ``target``?

    A ``True`` answer means the target *may* contain the query (verify with
    Ullmann); ``False`` is a proof that it does not (Lemma 1).
    """
    n1, n2 = query.num_vertices, target.num_vertices
    if n1 == 0:
        return True
    if n1 > n2:
        return False
    # Global semi-perfect matching over the refined bipartite graph.
    return kernels.global_semi_perfect_masks(kernels.pseudo_domain_masks(
        kernels.compile_query(query, level), target_context(target), level))


def global_semi_perfect(domains: list[set[int]], n_target: int) -> bool:
    """Definition 13's acceptance test over set domains: the reference of
    ``kernels.global_semi_perfect_masks``."""
    return has_semi_perfect_matching(
        len(domains), n_target, [sorted(d) for d in domains])
