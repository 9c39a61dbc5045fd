"""Graph matching substrate: matchings, mappings, distances, isomorphism."""

from repro.matching.bipartite import hopcroft_karp
from repro.matching.bipartite_mapping import (
    bipartite_mapping,
    bipartite_mapping_unweighted,
)
from repro.matching.bounds import (
    SimilarityQueryContext,
    distance_lower_bound,
    norm,
    sim_upper_bound,
)
from repro.matching.kernels import MAX_LEVEL, QueryContext, compile_query
from repro.matching.edit_distance import (
    MAPPING_METHODS,
    graph_distance,
    graph_mapping,
    graph_similarity,
)
from repro.matching.hungarian import (
    max_weight_assignment,
    min_cost_assignment,
)
from repro.matching.nbm import nbm_mapping
from repro.matching.pseudo_iso import (
    pseudo_compatibility_domains,
    pseudo_subgraph_isomorphic,
)
from repro.matching.state_search import state_search_mapping
from repro.matching.ullmann import (
    enumerate_embeddings,
    find_embedding,
    subgraph_isomorphic,
)

__all__ = [
    "MAPPING_METHODS",
    "MAX_LEVEL",
    "QueryContext",
    "SimilarityQueryContext",
    "bipartite_mapping",
    "compile_query",
    "bipartite_mapping_unweighted",
    "distance_lower_bound",
    "enumerate_embeddings",
    "find_embedding",
    "graph_distance",
    "graph_mapping",
    "graph_similarity",
    "hopcroft_karp",
    "max_weight_assignment",
    "min_cost_assignment",
    "nbm_mapping",
    "norm",
    "pseudo_compatibility_domains",
    "pseudo_subgraph_isomorphic",
    "sim_upper_bound",
    "state_search_mapping",
    "subgraph_isomorphic",
]
