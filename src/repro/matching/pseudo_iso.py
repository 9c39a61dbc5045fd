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
compiled onto int bitsets and cached per-graph contexts).  Its readable
set-based reference lives with the tests (``tests/oracles/pseudo_iso.py``),
which, with ``bench_kernels.py``, hold the kernels to it domain for domain.
"""

from __future__ import annotations

from typing import Union

from repro.graphs.closure import GraphLike
from repro.graphs.labelspace import target_context
from repro.matching import kernels

Level = Union[int, str]


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


