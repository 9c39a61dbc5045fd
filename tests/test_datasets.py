"""Unit tests for the dataset generators and query workloads."""

import random

import pytest

from repro.exceptions import ConfigError
from repro.datasets.chemical import (
    ChemicalConfig,
    _COMMON_ELEMENTS,
    _RARE_ELEMENTS,
    _poisson,
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
)
from repro.matching.ullmann import subgraph_isomorphic
from oracles.graphs import is_connected


def element_alphabet() -> list[str]:
    """All vertex labels the generator can emit."""
    return [e for e, _ in _COMMON_ELEMENTS] + _RARE_ELEMENTS


class TestChemicalGenerator:
    def test_alphabet_has_62_labels(self):
        labels = element_alphabet()
        assert len(labels) == 62
        assert len(set(labels)) == 62
        assert "C" in labels and "O" in labels and "N" in labels

    def test_compounds_connected(self):
        rng = random.Random(1)
        for _ in range(20):
            g = generate_compound(rng)
            assert is_connected(g)
            assert g.num_vertices >= 4

    def test_statistics_match_paper(self):
        db = generate_chemical_database(400, seed=2)
        avg_v = sum(g.num_vertices for g in db) / len(db)
        avg_e = sum(g.num_edges for g in db) / len(db)
        # Paper: avg 25 vertices, 27 edges.
        assert 20 <= avg_v <= 32
        assert avg_v <= avg_e <= avg_v * 1.3

    def test_label_skew_carbon_dominates(self):
        db = generate_chemical_database(200, seed=3)
        counts = {}
        for g in db:
            for v in g.vertices():
                counts[g.label(v)] = counts.get(g.label(v), 0) + 1
        total = sum(counts.values())
        assert counts["C"] / total > 0.5
        assert all(label in element_alphabet() for label in counts)

    def test_deterministic(self):
        assert generate_chemical_database(10, seed=5) == generate_chemical_database(
            10, seed=5
        )
        assert generate_chemical_database(10, seed=5) != generate_chemical_database(
            10, seed=6
        )

    def test_negative_count_rejected(self):
        with pytest.raises(ConfigError):
            generate_chemical_database(-1)

    def test_large_fraction_produces_tail(self):
        config = ChemicalConfig(large_fraction=1.0, large_multiplier=4.0)
        db = generate_chemical_database(20, seed=7, config=config)
        assert max(g.num_vertices for g in db) > 50

    def test_names_assigned(self):
        db = generate_chemical_database(3, seed=8)
        assert db[0].name == "compound-0"

    def test_poisson_mean(self):
        rng = random.Random(9)
        samples = [_poisson(rng, 10.0) for _ in range(2000)]
        assert 9.0 < sum(samples) / len(samples) < 11.0
        big = [_poisson(rng, 100.0) for _ in range(500)]
        assert 90 < sum(big) / len(big) < 110


class TestSyntheticGenerator:
    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SyntheticConfig(num_labels=0)
        with pytest.raises(ConfigError):
            SyntheticConfig(num_seeds=0)

    def test_database_shape(self):
        config = SyntheticConfig(
            num_graphs=30, num_seeds=10, seed_mean_size=5.0,
            graph_mean_size=25.0, num_labels=4,
        )
        db = generate_synthetic_database(config, seed=1)
        assert len(db) == 30
        avg = sum(g.num_vertices for g in db) / len(db)
        assert 18 <= avg <= 40
        labels = {g.label(v) for g in db for v in g.vertices()}
        assert labels <= {f"L{i}" for i in range(4)}

    def test_graphs_connected(self):
        config = SyntheticConfig(num_graphs=15, num_seeds=5, graph_mean_size=20.0)
        db = generate_synthetic_database(config, seed=2)
        assert all(is_connected(g) for g in db)

    def test_seeds_recur_across_graphs(self):
        """Seeds should appear as subgraphs of many database graphs — the
        property that makes the dataset interesting for subgraph queries."""
        config = SyntheticConfig(
            num_graphs=12, num_seeds=3, seed_mean_size=4.0,
            graph_mean_size=25.0, num_labels=3,
        )
        rng = random.Random(3)
        seeds = generate_seeds(rng, config)
        db = []
        from repro.datasets.synthetic import generate_synthetic_graph

        for _ in range(config.num_graphs):
            db.append(generate_synthetic_graph(rng, seeds, config))
        hits = sum(
            1 for g in db if subgraph_isomorphic(seeds[0], g)
        )
        assert hits >= 3  # seed 0 recurs in a decent share of the graphs

    def test_deterministic(self):
        config = SyntheticConfig(num_graphs=5, num_seeds=3, graph_mean_size=10.0)
        assert generate_synthetic_database(config, seed=4) == (
            generate_synthetic_database(config, seed=4)
        )


class TestQueryWorkloads:
    def test_subgraph_queries_shape(self, chem_db_small):
        queries = generate_subgraph_queries(chem_db_small, 6, 10, seed=1)
        assert len(queries) == 10
        for q in queries:
            assert q.num_vertices == 6
            assert is_connected(q)

    def test_queries_have_answers(self, chem_db_small):
        """Each query is extracted from a database graph, so it must have at
        least one answer."""
        queries = generate_subgraph_queries(chem_db_small, 5, 5, seed=2)
        for q in queries:
            assert any(subgraph_isomorphic(q, g) for g in chem_db_small)

    def test_too_large_query_rejected(self, chem_db_small):
        biggest = max(g.num_vertices for g in chem_db_small)
        with pytest.raises(ConfigError):
            generate_subgraph_queries(chem_db_small, biggest + 1, 1, seed=3)

    def test_empty_database_rejected(self):
        with pytest.raises(ConfigError):
            generate_subgraph_queries([], 3, 1)
        with pytest.raises(ConfigError):
            select_similarity_queries([], 1)

    def test_similarity_queries_from_database(self, chem_db_small):
        queries = select_similarity_queries(chem_db_small, 7, seed=4)
        assert len(queries) == 7
        for q in queries:
            assert q in chem_db_small

    def test_disjoint_groups(self, chem_db_small):
        g1, g2 = split_disjoint_groups(chem_db_small, 20, seed=5)
        assert len(g1) == len(g2) == 20
        ids1 = {id(g) for g in g1}
        ids2 = {id(g) for g in g2}
        assert not ids1 & ids2

    def test_disjoint_groups_too_large(self, chem_db_small):
        with pytest.raises(ConfigError):
            split_disjoint_groups(chem_db_small, len(chem_db_small))
