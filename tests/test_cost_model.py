"""Unit tests for the Section 6.3 cost model."""

import pytest

from repro.exceptions import ConfigError
from repro.ctree.stats import QueryStats
from repro.experiments.cost_model import (
    CostModel,
    fit_cost_model,
    fit_from_stats,
    per_level_averages,
)


class TestCostModelEvaluation:
    def test_x_y_follow_eqn13(self):
        model = CostModel(c1=0.5, c2=0.25, rho=2.0, fanout=4.0,
                          height=3.0, database_size=100)
        assert model.x(0) == 2.0
        assert model.x(1) == 1.0
        assert model.y(0) == 1.0
        assert model.y(2) == 0.25

    def test_r0_matches_hand_computation(self):
        model = CostModel(c1=1.0, c2=0.5, rho=1.0, fanout=2.0,
                          height=2.0, database_size=10)
        # x(i) = 2, y(i) = 1 at every level; h = 2:
        # R(0) = x(0) + x(1)*y(0) + y(0)*y(1) = 2 + 2 + 1 = 5.
        assert model.estimated_r0() == pytest.approx(5.0)

    def test_access_ratio(self):
        model = CostModel(c1=1.0, c2=0.5, rho=1.0, fanout=2.0,
                          height=2.0, database_size=12)
        assert model.estimated_access_ratio() == pytest.approx(6.0 / 12.0)

    def test_access_ratio_empty_database(self):
        model = CostModel(1, 1, 1, 1, 1, 0)
        assert model.estimated_access_ratio() == 0.0


class TestFitting:
    def test_exact_exponential_recovered(self):
        c1, c2, rho, k = 0.6, 0.3, 1.8, 5.0
        xs = [c1 * k * rho ** (-i) for i in range(4)]
        ys = [c2 * k * rho ** (-i) for i in range(4)]
        model = fit_cost_model(xs, ys, fanout=k, database_size=100)
        assert model.c1 == pytest.approx(c1, rel=1e-6)
        assert model.c2 == pytest.approx(c2, rel=1e-6)
        assert model.rho == pytest.approx(rho, rel=1e-6)

    def test_single_level_assumes_flat(self):
        model = fit_cost_model([3.0], [2.0], fanout=4.0, database_size=10)
        assert model.rho == 1.0
        assert model.x(0) == pytest.approx(3.0)

    def test_zero_levels_rejected(self):
        with pytest.raises(ConfigError):
            fit_cost_model([0.0], [0.0], fanout=4.0, database_size=10)

    def test_shared_slope_compromises(self):
        # Different decay rates: fitted rho must fall between them.
        xs = [8.0, 4.0, 2.0]      # rho = 2
        ys = [27.0, 9.0, 3.0]     # rho = 3
        model = fit_cost_model(xs, ys, fanout=4.0, database_size=10)
        assert 2.0 < model.rho < 3.0


class TestStatsPlumbing:
    def _stats(self):
        stats = QueryStats(database_size=50)
        stats.record_level(0, 6, 3)
        stats.record_level(1, 4, 2)
        stats.record_level(1, 2, 2)
        return stats

    def test_per_level_averages(self):
        xs, ys = per_level_averages(self._stats())
        assert xs == [6.0, 3.0]
        assert ys == [3.0, 2.0]

    def test_fit_from_stats(self):
        model = fit_from_stats(self._stats(), fanout=6.0)
        assert model.database_size == 50
        assert model.height == 2.0
        assert model.rho > 1.0  # counts decay with depth
