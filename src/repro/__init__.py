"""Closure-Tree: An Index Structure for Graph Queries — full reproduction.

Reproduces He & Singh, ICDE 2006: graph closures, the C-tree index, pseudo
subgraph isomorphism, heuristic graph mappings (NBM and friends), subgraph /
K-NN / range query processing, the GraphGrep baseline, the paper's dataset
generators, and a benchmark harness regenerating every evaluation figure.

Quickstart
----------
>>> from repro import CTree, Graph, subgraph_query
>>> tree = CTree(min_fanout=2)
>>> tree.extend([Graph(["C", "O"], [(0, 1)])])
[0]
>>> answers, stats = subgraph_query(tree, Graph(["C"]))
>>> answers
[0]
"""

from repro.exceptions import (
    ConfigError,
    GraphError,
    IndexError_,
    MappingError,
    PersistenceError,
    ReproError,
)
from repro.graphs import (
    EPSILON,
    WILDCARD,
    Graph,
    GraphClosure,
    GraphMapping,
    closure_under_mapping,
)
from repro.matching import (
    graph_distance,
    graph_mapping,
    graph_similarity,
    nbm_mapping,
    pseudo_subgraph_isomorphic,
    sim_upper_bound,
    subgraph_isomorphic,
)
from repro.ctree import (
    CTree,
    bulk_load,
    index_size_bytes,
    knn_query,
    range_query,
    subgraph_query,
)
from repro.graphgrep import GraphGrepIndex
from repro.datasets import (
    generate_chemical_database,
    generate_subgraph_queries,
    generate_synthetic_database,
)

__version__ = "1.0.0"

__all__ = [
    "EPSILON",
    "WILDCARD",
    "CTree",
    "ConfigError",
    "Graph",
    "GraphClosure",
    "GraphGrepIndex",
    "GraphMapping",
    "GraphError",
    "IndexError_",
    "MappingError",
    "PersistenceError",
    "ReproError",
    "bulk_load",
    "closure_under_mapping",
    "generate_chemical_database",
    "generate_subgraph_queries",
    "generate_synthetic_database",
    "graph_distance",
    "graph_mapping",
    "graph_similarity",
    "index_size_bytes",
    "knn_query",
    "nbm_mapping",
    "pseudo_subgraph_isomorphic",
    "range_query",
    "sim_upper_bound",
    "subgraph_isomorphic",
    "subgraph_query",
]
