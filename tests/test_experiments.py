"""Tests for the experiment harness (tiny configurations)."""

import pytest

from repro.experiments.config import (
    IndexSizeExperimentConfig,
    KnnExperimentConfig,
    MappingQualityConfig,
    SubgraphExperimentConfig,
    scaled_synthetic_config,
)
from repro.experiments.reporting import format_series_table
from repro.experiments.similarity_experiments import (
    run_knn_sweep,
    run_mapping_quality,
)
from repro.experiments.subgraph_experiments import (
    run_index_size_experiment,
    run_query_sweep,
)


class TestReporting:
    def test_series_table_alignment(self):
        table = format_series_table(
            "Fig X", "size", [5, 10],
            {"a": [1.0, 2.0], "b": [3, None]},
        )
        lines = table.splitlines()
        assert lines[0] == "Fig X"
        assert "size" in lines[2]
        assert "1.000" in table
        assert "-" in lines[-1]


class TestConfigs:
    def test_max_fanout_derived(self):
        config = SubgraphExperimentConfig(min_fanout=5)
        assert config.max_fanout == 9

    def test_scaled_synthetic_keeps_paper_parameters(self):
        config = scaled_synthetic_config(123)
        assert config.num_graphs == 123
        assert config.num_seeds == 100
        assert config.graph_mean_size == 50.0
        assert config.num_labels == 10


TINY_SUBGRAPH = SubgraphExperimentConfig(
    database_size=25,
    queries_per_size=2,
    query_sizes=(4, 6),
    min_fanout=3,
    levels=(1, "max"),
    seed=5,
)


class TestQuerySweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        return run_query_sweep(TINY_SUBGRAPH, dataset="chemical")

    def test_shapes(self, sweep):
        assert sweep.query_sizes == [4, 6]
        assert len(sweep.answers) == 2
        assert len(sweep.ctree_candidates[1]) == 2
        assert len(sweep.graphgrep_candidates) == 2
        assert len(sweep.access_ratio) == 2
        assert len(sweep.access_ratio_estimated) == 2

    def test_candidate_sets_dominate_answers(self, sweep):
        for level in (1, "max"):
            for candidates, answers in zip(
                sweep.ctree_candidates[level], sweep.answers
            ):
                assert candidates >= answers - 1e-9

    def test_max_level_at_least_as_selective(self, sweep):
        for c1, cmax in zip(sweep.ctree_candidates[1],
                            sweep.ctree_candidates["max"]):
            assert cmax <= c1 + 1e-9

    def test_accuracies_in_unit_interval(self, sweep):
        for level in (1, "max"):
            for a in sweep.ctree_accuracy[level]:
                assert 0.0 <= a <= 1.0
        for a in sweep.graphgrep_accuracy:
            assert 0.0 <= a <= 1.0

    def test_estimates_positive(self, sweep):
        for est in sweep.access_ratio_estimated:
            assert est > 0.0


class TestIndexSizeExperiment:
    def test_sizes_monotone_in_database(self):
        config = IndexSizeExperimentConfig(
            database_sizes=(10, 25), graphgrep_lps=(2,), seed=3, min_fanout=3
        )
        result = run_index_size_experiment(config)
        assert result.ctree_bytes[0] < result.ctree_bytes[1]
        assert result.graphgrep_bytes[2][0] < result.graphgrep_bytes[2][1]
        assert all(t >= 0 for t in result.ctree_seconds)


class TestMappingQuality:
    def test_ratios_bounded(self):
        config = MappingQualityConfig(
            group_size=5, database_size=30, bucket_width=10.0, seed=3
        )
        result = run_mapping_quality(config)
        assert result.pairs == 25
        for r in result.nbm_ratio + result.bipartite_ratio:
            assert 0.0 <= r <= 1.0 + 1e-9


class TestKnnSweep:
    def test_shapes_and_monotonicity(self):
        config = KnnExperimentConfig(
            database_size=30, ks=(1, 5), queries=3, min_fanout=3, seed=4
        )
        result = run_knn_sweep(config)
        assert len(result.access_ratio) == 2
        # More neighbors require touching at least as much of the tree.
        assert result.access_ratio[1] >= result.access_ratio[0] - 1e-9
        assert all(s >= 0 for s in result.seconds)
