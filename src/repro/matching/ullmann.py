"""Ullmann's exact subgraph isomorphism algorithm [22].

Used by the verification phase of subgraph query processing (Alg. 3).  The
semantics are subgraph *monomorphism* (the standard graph-database reading):
an injection of query vertices into target vertices that preserves labels
and maps every query edge onto a target edge — extra target edges between
image vertices are allowed.

The implementation is Ullmann's candidate-matrix formulation: an initial
compatibility matrix, an iterated refinement (a query vertex candidate must
have a compatible neighbor candidate for every query neighbor), and a
backtracking search with dynamic most-constrained-vertex ordering.  The
compatibility matrix produced by pseudo subgraph isomorphism (Alg. 2) can be
passed in to skip the initial work — the acceleration noted in Section 6.2.

Targets may be plain graphs or closures; label compatibility is set
intersection via the shared ``label_set`` protocol.

The entry points run :func:`repro.matching.kernels.embeddings_masks`: the
fixpoint and search over the bitsets and contexts Alg. 2 already built.
Its readable set-based reference lives with the tests
(``tests/oracles/ullmann.py``), which hold the kernel to the identical
sequence of embeddings.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.graphs.closure import GraphLike
from repro.graphs.labelspace import target_context
from repro.matching import kernels


def enumerate_embeddings(
    query: GraphLike,
    target: GraphLike,
    domains: Optional[list] = None,
    limit: Optional[int] = None,
) -> Iterator[dict[int, int]]:
    """Yield subgraph-monomorphism embeddings (query vertex -> target vertex).

    ``domains`` may carry a precomputed compatibility matrix (e.g. from
    pseudo subgraph isomorphism), as sets of target vertices or as
    bitmasks; it is copied, then refined.
    """
    if domains and not isinstance(domains[0], int):
        domains = kernels.domains_to_masks(domains)
    return kernels.embeddings_masks(
        kernels.compile_query(query), target_context(target), domains, limit)


def find_embedding(
    query: GraphLike,
    target: GraphLike,
    domains: Optional[list] = None,
) -> Optional[dict[int, int]]:
    """The first embedding found, or ``None``."""
    for embedding in enumerate_embeddings(query, target, domains, limit=1):
        return embedding
    return None


def subgraph_isomorphic(
    query: GraphLike,
    target: GraphLike,
    domains: Optional[list] = None,
) -> bool:
    """True iff ``query`` is subgraph-isomorphic (monomorphic) to ``target``."""
    return find_embedding(query, target, domains) is not None


