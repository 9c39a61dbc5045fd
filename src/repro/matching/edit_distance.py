"""Graph distance and similarity via heuristic mappings (Definitions 3-6, 9).

The optimal quantities are intractable, so — exactly as the paper does — the
library computes a *good* mapping with one of the Section 4 methods and
evaluates the cost/similarity under it.  Distances computed this way are
upper bounds on the true edit distance; similarities are lower bounds on the
true similarity.  For closures, the uniform set measures make the same
machinery compute the minimum distance / maximum similarity of Definition 9
under the chosen mapping.
"""

from __future__ import annotations

from typing import Callable

from repro.exceptions import ConfigError
from repro.graphs.closure import GraphLike
from repro.graphs.mapping import GraphMapping
from repro.matching.bipartite_mapping import (
    bipartite_mapping,
    bipartite_mapping_unweighted,
)
from repro.matching.nbm import NbmScorer, nbm_mapping
from repro.matching.state_search import state_search_mapping
from repro.obs.metrics import global_registry

#: Mapping methods of Section 4, by name.
MAPPING_METHODS: dict[str, Callable[..., GraphMapping]] = {
    "nbm": nbm_mapping,
    "bipartite": bipartite_mapping,
    "bipartite_unweighted": bipartite_mapping_unweighted,
    "state": state_search_mapping,
}

DEFAULT_METHOD = "nbm"

#: hot-path counters, resolved once at import time
_C_MAPPING_CALLS = global_registry().counter("matching.mapping.calls")
_C_BY_METHOD = {
    name: global_registry().counter(f"matching.mapping.calls.{name}")
    for name in MAPPING_METHODS
}


def _select(method: str) -> Callable[..., GraphMapping]:
    """The mapper called ``method``."""
    try:
        return MAPPING_METHODS[method]
    except KeyError:
        raise ConfigError(
            f"unknown mapping method {method!r}; "
            f"choose from {sorted(MAPPING_METHODS)}"
        ) from None


def count_mapping(method: str = DEFAULT_METHOD) -> None:
    """Count one mapping computed under ``method``: every graph a
    similarity or distance is read for, here or in a K-NN or range
    traversal, is one call."""
    _C_MAPPING_CALLS.value += 1
    _C_BY_METHOD[method].value += 1


def graph_mapping(
    g1: GraphLike, g2: GraphLike, method: str = DEFAULT_METHOD, **kwargs
) -> GraphMapping:
    """Find a mapping between two graph-like objects.

    ``method`` is one of ``"nbm"`` (default, Alg. 1), ``"bipartite"``
    (weighted, Sec. 4.2), ``"bipartite_unweighted"``, or ``"state"``
    (exact branch-and-bound, small graphs only).
    """
    mapper = _select(method)
    count_mapping(method)
    return mapper(g1, g2, **kwargs)


def graph_distance(
    g1: GraphLike, g2: GraphLike, method: str = DEFAULT_METHOD, **kwargs
) -> float:
    """Approximate edit distance (Def. 4): cost under a heuristic mapping.

    Always an upper bound on the true distance; equals it when
    ``method="state"`` finds the optimum (note: the state search optimizes
    similarity, which coincides with minimal distance under the uniform
    measure only when matched pairs are label-compatible).
    """
    if method == "nbm":
        count_mapping(method)
        return NbmScorer(g1, **kwargs).score(g2)[1]
    return graph_mapping(g1, g2, method, **kwargs).edit_cost()


def graph_similarity(
    g1: GraphLike, g2: GraphLike, method: str = DEFAULT_METHOD, **kwargs
) -> float:
    """Approximate similarity (Def. 6): similarity under a heuristic
    mapping.  Always a lower bound on the true similarity."""
    if method == "nbm":
        count_mapping(method)
        return NbmScorer(g1, **kwargs).similarity(g2)
    return graph_mapping(g1, g2, method, **kwargs).similarity()
