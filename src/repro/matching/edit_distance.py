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
from repro.graphs.labelspace import TargetContext
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


class MappingScorer:
    """Similarity and distance from one graph to many under one mapping
    method: what :func:`graph_similarity` / :func:`graph_distance` compute,
    with the method resolved (an unknown one is a ``ConfigError`` here,
    before anything is scored) and, for NBM, the first graph's side
    of Alg. 1 compiled once.  :meth:`load` decides what a traversal loads
    a leaf entry as.  Every graph scored counts as one mapping call."""

    __slots__ = ("g1", "_mapper", "_kwargs", "_nbm", "_calls")

    def __init__(self, g1: GraphLike, method: str = DEFAULT_METHOD,
                 **kwargs) -> None:
        self.g1 = g1
        self._mapper = _select(method)
        self._kwargs = kwargs
        self._nbm = (NbmScorer(g1, **kwargs)
                     if self._mapper is nbm_mapping else None)
        self._calls = (_C_MAPPING_CALLS, _C_BY_METHOD[method])

    def _count(self) -> None:
        for counter in self._calls:
            counter.value += 1

    def load(self, store, entry) -> GraphLike | TargetContext:
        """What a node store's leaf ``entry`` is scored as: the context
        compiled NBM reads (a disk record builds no graph), the graph for
        every other method."""
        if self._nbm is not None:
            return store.load_nbm_context(entry)
        return store.load_graph(entry)

    def mapping(self, g2: GraphLike) -> GraphMapping:
        self._count()
        if self._nbm is not None:
            return self._nbm.mapping(g2)
        return self._mapper(self.g1, g2, **self._kwargs)

    def similarity(self, g2: GraphLike | TargetContext) -> float:
        if self._nbm is None:
            return self.mapping(g2).similarity()
        self._count()
        return self._nbm.similarity(g2)

    def distance(self, g2: GraphLike | TargetContext) -> float:
        if self._nbm is None:
            return self.mapping(g2).edit_cost()
        self._count()
        return self._nbm.score(g2)[1]


def graph_mapping(
    g1: GraphLike, g2: GraphLike, method: str = DEFAULT_METHOD, **kwargs
) -> GraphMapping:
    """Find a mapping between two graph-like objects.

    ``method`` is one of ``"nbm"`` (default, Alg. 1), ``"bipartite"``
    (weighted, Sec. 4.2), ``"bipartite_unweighted"``, or ``"state"``
    (exact branch-and-bound, small graphs only).
    """
    return MappingScorer(g1, method, **kwargs).mapping(g2)


def graph_distance(
    g1: GraphLike, g2: GraphLike, method: str = DEFAULT_METHOD, **kwargs
) -> float:
    """Approximate edit distance (Def. 4): cost under a heuristic mapping.

    Always an upper bound on the true distance; equals it when
    ``method="state"`` finds the optimum (note: the state search optimizes
    similarity, which coincides with minimal distance under the uniform
    measure only when matched pairs are label-compatible — use
    :func:`repro.matching.state_search.optimal_distance` for the exact
    value on tiny graphs).
    """
    return MappingScorer(g1, method, **kwargs).distance(g2)


def graph_similarity(
    g1: GraphLike, g2: GraphLike, method: str = DEFAULT_METHOD, **kwargs
) -> float:
    """Approximate similarity (Def. 6): similarity under a heuristic
    mapping.  Always a lower bound on the true similarity."""
    return MappingScorer(g1, method, **kwargs).similarity(g2)


def subgraph_distance(
    g1: GraphLike, g2: GraphLike, method: str = DEFAULT_METHOD, **kwargs
) -> float:
    """Approximate subgraph distance (Def. 5 / Eqn. 4): how far ``g1`` is
    from being a subgraph of ``g2``.  Zero when the mapping embeds ``g1``
    exactly."""
    return graph_mapping(g1, g2, method, **kwargs).subgraph_cost()


def closure_min_distance(
    c1: GraphLike, c2: GraphLike, method: str = DEFAULT_METHOD, **kwargs
) -> float:
    """Heuristic minimum distance between closures (Def. 9), used by the
    linear split policy.  The uniform set measures already implement
    ``d_min`` elementwise, so this is just the edit cost under a mapping."""
    return graph_mapping(c1, c2, method, **kwargs).edit_cost()
