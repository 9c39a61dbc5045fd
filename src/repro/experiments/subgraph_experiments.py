"""Subgraph-query experiments (Figs. 6-9).

Each runner builds the workload, executes it on both index structures, and
returns a result object whose fields map one-to-one onto the curves of the
corresponding paper figure.  The benchmark scripts under ``benchmarks/``
print them via :mod:`repro.experiments.reporting`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from repro.graphs.graph import Graph
from repro.ctree.bulkload import bulk_load
from repro.ctree.persistence import index_size_bytes
from repro.ctree.stats import QueryStats
from repro.ctree.subgraph_query import subgraph_query
from repro.graphgrep.index import GraphGrepIndex
from repro.datasets.chemical import generate_chemical_database
from repro.datasets.queries import generate_subgraph_queries
from repro.datasets.synthetic import generate_synthetic_database
from repro.experiments.config import (
    IndexSizeExperimentConfig,
    SubgraphExperimentConfig,
    scaled_synthetic_config,
)
from repro.experiments.cost_model import fit_from_stats, mean_fanout

DatasetBuilder = Callable[[int, int], list[Graph]]


def chemical_dataset(size: int, seed: int) -> list[Graph]:
    return generate_chemical_database(size, seed=seed)


def synthetic_dataset(size: int, seed: int) -> list[Graph]:
    return generate_synthetic_database(scaled_synthetic_config(size), seed=seed)


DATASETS: dict[str, DatasetBuilder] = {
    "chemical": chemical_dataset,
    "synthetic": synthetic_dataset,
}


# ----------------------------------------------------------------------
# Fig. 6: index size and construction time vs database size
# ----------------------------------------------------------------------
@dataclass
class IndexSizeResult:
    database_sizes: list[int]
    ctree_bytes: list[int]
    ctree_seconds: list[float]
    #: keyed by lp value
    graphgrep_bytes: dict[int, list[int]]
    graphgrep_seconds: dict[int, list[float]]


def run_index_size_experiment(
    config: IndexSizeExperimentConfig = IndexSizeExperimentConfig(),
    dataset: str = "chemical",
) -> IndexSizeResult:
    """Build both indexes at every database size and measure them."""
    build = DATASETS[dataset]
    result = IndexSizeResult(
        database_sizes=list(config.database_sizes),
        ctree_bytes=[],
        ctree_seconds=[],
        graphgrep_bytes={lp: [] for lp in config.graphgrep_lps},
        graphgrep_seconds={lp: [] for lp in config.graphgrep_lps},
    )
    for size in config.database_sizes:
        graphs = build(size, config.seed)

        start = time.perf_counter()
        tree = bulk_load(graphs, min_fanout=config.min_fanout, seed=config.seed)
        result.ctree_seconds.append(time.perf_counter() - start)
        result.ctree_bytes.append(index_size_bytes(tree))

        for lp in config.graphgrep_lps:
            start = time.perf_counter()
            index = GraphGrepIndex.build(
                graphs, lp=lp, fingerprint_size=config.graphgrep_fp
            )
            result.graphgrep_seconds[lp].append(time.perf_counter() - start)
            result.graphgrep_bytes[lp].append(index.index_size_bytes())
    return result


# ----------------------------------------------------------------------
# Figs. 7-9: candidate sets, accuracy, access ratio, query time
# ----------------------------------------------------------------------
@dataclass
class QuerySweepResult:
    """Per-query-size averages for one dataset (Figs. 7, 8, 9)."""

    dataset: str
    database_size: int
    query_sizes: list[int]
    #: average answer set size per query size
    answers: list[float]
    #: C-tree candidate set sizes, keyed by pseudo-iso level
    ctree_candidates: dict = field(default_factory=dict)
    ctree_accuracy: dict = field(default_factory=dict)
    #: access ratio (actual, level-1 traversal) and cost-model estimate
    access_ratio: list[float] = field(default_factory=list)
    access_ratio_estimated: list[float] = field(default_factory=list)
    ctree_search_seconds: list[float] = field(default_factory=list)
    ctree_verify_seconds: list[float] = field(default_factory=list)
    graphgrep_candidates: list[float] = field(default_factory=list)
    graphgrep_accuracy: list[float] = field(default_factory=list)
    graphgrep_search_seconds: list[float] = field(default_factory=list)
    graphgrep_verify_seconds: list[float] = field(default_factory=list)


def run_query_sweep(
    config: SubgraphExperimentConfig = SubgraphExperimentConfig(),
    dataset: str = "chemical",
) -> QuerySweepResult:
    """The main subgraph-query experiment: sweep the query size, averaging
    over the workload; run every configured pseudo-iso level on the C-tree
    plus GraphGrep on the same queries."""
    graphs = DATASETS[dataset](config.database_size, config.seed)
    tree = bulk_load(graphs, min_fanout=config.min_fanout, seed=config.seed)
    gg = GraphGrepIndex.build(
        graphs, lp=config.graphgrep_lp, fingerprint_size=config.graphgrep_fp
    )
    tree_fanout = mean_fanout(tree)

    result = QuerySweepResult(
        dataset=dataset,
        database_size=config.database_size,
        query_sizes=list(config.query_sizes),
        answers=[],
        ctree_candidates={level: [] for level in config.levels},
        ctree_accuracy={level: [] for level in config.levels},
    )

    for size in config.query_sizes:
        queries = generate_subgraph_queries(
            graphs, size, config.queries_per_size, seed=config.seed + size
        )

        level_stats: dict = {}
        for level in config.levels:
            merged = QueryStats()
            for query in queries:
                _, stats = subgraph_query(tree, query, level=level)
                merged.merge(stats)
            level_stats[level] = merged

        primary = level_stats[config.levels[0]]
        n = len(queries)
        result.answers.append(primary.answers / n)
        for level in config.levels:
            stats = level_stats[level]
            result.ctree_candidates[level].append(stats.candidates / n)
            result.ctree_accuracy[level].append(stats.accuracy)
        result.access_ratio.append(primary.access_ratio / n)
        model = fit_from_stats(primary, fanout=tree_fanout)
        result.access_ratio_estimated.append(model.estimated_access_ratio())
        result.ctree_search_seconds.append(primary.search_seconds / n)
        result.ctree_verify_seconds.append(primary.verify_seconds / n)

        gg_candidates = gg_answers = 0
        gg_search = gg_verify = 0.0
        for query in queries:
            _, stats = gg.query(query)
            gg_candidates += stats.candidates
            gg_answers += stats.answers
            gg_search += stats.search_seconds
            gg_verify += stats.verify_seconds
        result.graphgrep_candidates.append(gg_candidates / n)
        result.graphgrep_accuracy.append(
            gg_answers / gg_candidates if gg_candidates else 1.0
        )
        result.graphgrep_search_seconds.append(gg_search / n)
        result.graphgrep_verify_seconds.append(gg_verify / n)
    return result
