"""Experiment harness reproducing the paper's evaluation (Section 8)."""

from repro.experiments.config import (
    IndexSizeExperimentConfig,
    KnnExperimentConfig,
    MappingQualityConfig,
    SubgraphExperimentConfig,
    scaled_synthetic_config,
)
from repro.experiments.cost_model import (
    CostModel,
    fit_cost_model,
    fit_from_stats,
    mean_fanout,
    per_level_averages,
)
from repro.experiments.reporting import format_series_table
from repro.experiments.similarity_experiments import (
    KnnSweepResult,
    MappingQualityResult,
    run_knn_sweep,
    run_mapping_quality,
)
from repro.experiments.subgraph_experiments import (
    DATASETS,
    IndexSizeResult,
    QuerySweepResult,
    run_index_size_experiment,
    run_query_sweep,
)

__all__ = [
    "CostModel",
    "DATASETS",
    "IndexSizeExperimentConfig",
    "IndexSizeResult",
    "KnnExperimentConfig",
    "KnnSweepResult",
    "MappingQualityConfig",
    "MappingQualityResult",
    "QuerySweepResult",
    "SubgraphExperimentConfig",
    "fit_cost_model",
    "fit_from_stats",
    "format_series_table",
    "mean_fanout",
    "per_level_averages",
    "run_index_size_experiment",
    "run_knn_sweep",
    "run_mapping_quality",
    "run_query_sweep",
    "scaled_synthetic_config",
]
