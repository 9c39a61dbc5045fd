"""Experiment harness reproducing the paper's evaluation (Section 8)."""

from repro.experiments.config import (
    IndexSizeExperimentConfig,
    KnnExperimentConfig,
    MappingQualityConfig,
    SubgraphExperimentConfig,
    scaled_synthetic_config,
)
from repro.experiments.reporting import format_bytes, format_series_table, ratio
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
    "DATASETS",
    "IndexSizeExperimentConfig",
    "IndexSizeResult",
    "KnnExperimentConfig",
    "KnnSweepResult",
    "MappingQualityConfig",
    "MappingQualityResult",
    "QuerySweepResult",
    "SubgraphExperimentConfig",
    "format_bytes",
    "format_series_table",
    "ratio",
    "run_index_size_experiment",
    "run_knn_sweep",
    "run_mapping_quality",
    "run_query_sweep",
    "scaled_synthetic_config",
]
