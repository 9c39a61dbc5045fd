"""Coverage for smaller API surfaces: reporting helpers, exceptions,
NBM options, mean fanout."""

import pytest

from repro.exceptions import (
    ConfigError,
    GraphError,
    IndexError_,
    MappingError,
    PersistenceError,
    ReproError,
)
from oracles.graphs import matched_pairs, vertex_permuted
from oracles.nbm import nbm_mapping_reference
from repro.ctree.bulkload import bulk_load
from repro.ctree.tree import CTree
from repro.experiments.cost_model import mean_fanout

from conftest import path_graph, random_labeled_graph


class TestExceptionHierarchy:
    @pytest.mark.parametrize("exc", [
        GraphError, MappingError, IndexError_, PersistenceError, ConfigError,
    ])
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)
        with pytest.raises(ReproError):
            raise exc("boom")

    def test_index_error_does_not_shadow_builtin(self):
        assert IndexError_ is not IndexError
        assert not issubclass(IndexError_, IndexError)


class TestNbmOptions:
    def test_neighborhood_init_zero_still_valid(self):
        g = path_graph(["C", "C", "C"])
        mapping = nbm_mapping_reference(g, g, neighborhood_init=0.0)
        assert len(matched_pairs(mapping)) == 3

    def test_neighbor_bonus_zero_degenerates_gracefully(self, rng):
        g1 = random_labeled_graph(rng, 8)
        g2 = random_labeled_graph(rng, 8)
        mapping = nbm_mapping_reference(g1, g2, neighbor_bonus=0.0)
        assert mapping.pairs  # still a full mapping

    def test_neighborhood_init_improves_sparse_labels(self, rng):
        # On an all-same-label graph the neighborhood term should only help.
        worse = better = 0
        for _ in range(8):
            g = random_labeled_graph(rng, 10, num_labels=1)
            h = vertex_permuted(g, rng)
            plain = nbm_mapping_reference(
                g, h, neighborhood_init=0.0).edit_cost()
            aware = nbm_mapping_reference(
                g, h, neighborhood_init=0.5).edit_cost()
            if aware < plain:
                better += 1
            elif aware > plain:
                worse += 1
        assert better >= worse


class TestMeanFanout:
    def test_empty_tree(self):
        assert mean_fanout(CTree(min_fanout=2)) == 0.0

    def test_single_leaf(self, rng):
        tree = bulk_load([random_labeled_graph(rng, 4) for _ in range(3)],
                         min_fanout=2)
        assert mean_fanout(tree) == 3.0

    def test_two_levels(self, rng):
        graphs = [random_labeled_graph(rng, 4) for _ in range(20)]
        tree = bulk_load(graphs, min_fanout=2, max_fanout=4)
        k = mean_fanout(tree)
        assert 2.0 <= k <= 4.0


class TestDatasetsRegistry:
    def test_registry_names(self):
        from repro.experiments.subgraph_experiments import DATASETS

        assert set(DATASETS) == {"chemical", "synthetic"}
        graphs = DATASETS["chemical"](5, 1)
        assert len(graphs) == 5
