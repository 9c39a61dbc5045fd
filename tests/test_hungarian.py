"""Unit tests for the Hungarian algorithm, cross-validated against scipy."""

import random

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from repro.matching.hungarian import (
    max_weight_assignment,
    min_cost_assignment,
)


class TestMinCostAssignment:
    def test_empty(self):
        assert min_cost_assignment([]) == {}

    def test_identity_optimal(self):
        cost = [[0, 9, 9], [9, 0, 9], [9, 9, 0]]
        assignment = min_cost_assignment(cost)
        assert assignment == {0: 0, 1: 1, 2: 2}

    def test_requires_wide_matrix(self):
        with pytest.raises(ValueError):
            min_cost_assignment([[1], [2]])

    def test_rectangular(self):
        cost = [[5, 1, 9], [1, 5, 9]]
        assignment = min_cost_assignment(cost)
        assert assignment == {0: 1, 1: 0}

    @pytest.mark.parametrize("seed", range(10))
    def test_against_scipy(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(1, 8)
        m = rng.randrange(n, 9)
        cost = [[rng.uniform(-5, 5) for _ in range(m)] for _ in range(n)]
        ours = min_cost_assignment(cost)
        our_total = sum(cost[i][j] for i, j in ours.items())
        rows, cols = linear_sum_assignment(np.array(cost))
        scipy_total = sum(cost[i][j] for i, j in zip(rows, cols))
        assert our_total == pytest.approx(scipy_total)


class TestMaxWeightAssignment:
    def test_empty(self):
        assert max_weight_assignment([]) == ({}, 0.0)

    def test_simple(self):
        weights = [[1, 2], [3, 1]]
        assignment, total = max_weight_assignment(weights)
        assert total == 5.0
        assert assignment == {0: 1, 1: 0}

    def test_tall_matrix_transposed(self):
        weights = [[3], [1], [2]]  # 3 rows, 1 column
        assignment, total = max_weight_assignment(weights)
        assert total == 3.0
        assert assignment == {0: 0}

    @pytest.mark.parametrize("seed", range(10))
    def test_against_scipy_maximize(self, seed):
        rng = random.Random(100 + seed)
        n = rng.randrange(1, 8)
        m = rng.randrange(1, 8)
        weights = [[rng.uniform(0, 10) for _ in range(m)] for _ in range(n)]
        _, our_total = max_weight_assignment(weights)
        rows, cols = linear_sum_assignment(np.array(weights), maximize=True)
        scipy_total = sum(weights[i][j] for i, j in zip(rows, cols))
        assert our_total == pytest.approx(scipy_total)
