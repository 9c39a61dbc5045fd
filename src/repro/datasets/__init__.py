"""Dataset generators: chemical-like compounds, Kuramochi-Karypis synthetic
graphs, and query workloads."""

from repro.datasets.chemical import (
    ChemicalConfig,
    generate_chemical_database,
    generate_compound,
)
from repro.datasets.queries import (
    generate_subgraph_queries,
    select_similarity_queries,
    split_disjoint_groups,
)
from repro.datasets.synthetic import (
    SyntheticConfig,
    generate_seeds,
    generate_synthetic_database,
    generate_synthetic_graph,
)

__all__ = [
    "ChemicalConfig",
    "SyntheticConfig",
    "generate_chemical_database",
    "generate_compound",
    "generate_seeds",
    "generate_subgraph_queries",
    "generate_synthetic_database",
    "generate_synthetic_graph",
    "select_similarity_queries",
    "split_disjoint_groups",
]
