"""Experiment configurations (Section 8).

Every experiment is parameterized so the paper-scale settings can be run on
serious hardware, while the defaults are scaled to finish on a laptop in
minutes: pure-Python isomorphism inner loops are ~100x slower than the
paper's C++/Java, so defaults use databases of a few hundred graphs and tens
of queries.  EXPERIMENTS.md records both settings next to every figure.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.datasets.synthetic import SyntheticConfig


@dataclass(frozen=True)
class SubgraphExperimentConfig:
    """Shared settings for the Figs. 6-9 subgraph-query experiments."""

    #: paper: 10,000 graphs (Figs. 7-8) and 2K..32K (Fig. 6)
    database_size: int = 300
    #: paper: 1000 queries per size
    queries_per_size: int = 30
    #: paper: 5, 10, 15, 20, 25
    query_sizes: tuple[int, ...] = (5, 10, 15, 20, 25)
    #: paper: m=20, M=2m-1
    min_fanout: int = 10
    #: paper: lp=4 (query experiments); 4 and 10 (index size)
    graphgrep_lp: int = 4
    graphgrep_fp: int = 256
    #: pseudo subgraph isomorphism levels compared in Fig. 7
    levels: tuple = (1, "max")
    seed: int = 7

    @property
    def max_fanout(self) -> int:
        return 2 * self.min_fanout - 1


@dataclass(frozen=True)
class IndexSizeExperimentConfig:
    """Fig. 6: index size / construction time vs database size."""

    #: paper: 2K, 4K, 8K, 16K, 32K
    database_sizes: tuple[int, ...] = (50, 100, 200, 400)
    min_fanout: int = 10
    graphgrep_lps: tuple[int, ...] = (4, 10)
    graphgrep_fp: int = 256
    seed: int = 7


@dataclass(frozen=True)
class MappingQualityConfig:
    """Fig. 10: similarity / upper-bound ratio for NBM vs bipartite."""

    #: paper: two disjoint groups of 1000 graphs -> 10^6 pairs
    group_size: int = 40
    database_size: int = 200
    #: histogram buckets over the upper-bound axis
    bucket_width: float = 15.0
    seed: int = 11


@dataclass(frozen=True)
class KnnExperimentConfig:
    """Fig. 11: K-NN access ratio and query time vs K."""

    database_size: int = 200
    #: paper: 1, 10, 100, 1000 over |D| = 10000 (K up to |D|/10)
    ks: tuple[int, ...] = (1, 2, 5, 10, 20)
    queries: int = 10
    min_fanout: int = 10
    seed: int = 13


def scaled_synthetic_config(database_size: int) -> SyntheticConfig:
    """The paper's synthetic parameters (S=100, I=10, T=50, L=10) with only
    D scaled down."""
    return SyntheticConfig(
        num_graphs=database_size,
        num_seeds=100,
        seed_mean_size=10.0,
        graph_mean_size=50.0,
        num_labels=10,
    )


#: Paper-scale settings, for reference and for brave machines.
PAPER_SUBGRAPH = SubgraphExperimentConfig(
    database_size=10000,
    queries_per_size=1000,
    min_fanout=20,
)
PAPER_INDEX_SIZE = IndexSizeExperimentConfig(
    database_sizes=(2000, 4000, 8000, 16000, 32000),
    min_fanout=20,
)
PAPER_MAPPING_QUALITY = MappingQualityConfig(
    group_size=1000, database_size=10000
)
PAPER_KNN = KnnExperimentConfig(
    database_size=10000, ks=(1, 10, 100, 1000), queries=1000, min_fanout=20
)
