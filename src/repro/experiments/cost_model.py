"""Performance model for subgraph queries (Section 6.3).

The paper models the expected number of visited nodes/graphs below a level-i
node as

    R(i) = x(i) + y(i) * R(i+1),   R(h) = 1                    (Eqn. 11)

where ``x(i)`` children survive the histogram test (and are visited: a
node expanded, a graph tested by pseudo subgraph isomorphism) and ``y(i)``
are traced down (every visited node, and the graphs passing the pseudo
test).  Both are modeled as exponentially decaying with depth:

    x(i) = c1 * k * rho^-i,   y(i) = c2 * k * rho^-i           (Eqn. 13)

with the constants estimated empirically.  The access ratio estimate is
``gamma = (1 + R(0)) / |D|``.

:func:`fit_cost_model` estimates (c1, c2, rho) from measured per-level
averages by log-linear least squares with a shared decay slope;
:meth:`CostModel.estimated_access_ratio` evaluates Eqn. (12).  This module
powers the "Estimated" curves of Figs. 8(a) and 9(b).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.exceptions import ConfigError
from repro.ctree.stats import QueryStats


@dataclass(frozen=True)
class CostModel:
    """Fitted Eqn. (13) parameters for one C-tree + workload."""

    c1: float
    c2: float
    rho: float
    fanout: float  # k
    height: float  # h: number of modeled levels (graphs sit at level h)
    database_size: int

    def x(self, i: int) -> float:
        return self.c1 * self.fanout * self.rho ** (-i)

    def y(self, i: int) -> float:
        return self.c2 * self.fanout * self.rho ** (-i)

    def estimated_r0(self) -> float:
        """Eqn. (12): R(0) = sum_i x(i) prod_{j<i} y(j) + prod_i y(i)."""
        h = int(self.height)
        total = 0.0
        prefix = 1.0
        for i in range(h):
            total += self.x(i) * prefix
            prefix *= self.y(i)
        return total + prefix

    def estimated_access_ratio(self) -> float:
        """gamma = (1 + R(0)) / |D|."""
        if self.database_size == 0:
            return 0.0
        return (1.0 + self.estimated_r0()) / self.database_size

def per_level_averages(stats: QueryStats) -> tuple[list[float], list[float]]:
    """Average x(i) and y(i) per expanded node at each depth, from merged
    query statistics."""
    xs, ys = [], []
    for i, n in enumerate(stats.nodes_by_level):
        if n <= 0:
            xs.append(0.0)
            ys.append(0.0)
        else:
            xs.append(stats.x_by_level[i] / n)
            ys.append(stats.y_by_level[i] / n)
    return xs, ys


def fit_cost_model(
    xs: Sequence[float],
    ys: Sequence[float],
    fanout: float,
    database_size: int,
) -> CostModel:
    """Fit Eqn. (13) by least squares on logs with a shared slope.

    Levels where either average is zero are excluded from the fit (log is
    undefined there); at least one usable level is required.
    """
    levels = [i for i in range(min(len(xs), len(ys))) if xs[i] > 0 and ys[i] > 0]
    if not levels:
        raise ConfigError("cost model fit needs at least one non-zero level")
    h = float(max(len(xs), len(ys)))

    if len(levels) == 1:
        i = levels[0]
        # One level: no decay information; assume rho = 1.
        return CostModel(
            c1=xs[i] / fanout,
            c2=ys[i] / fanout,
            rho=1.0,
            fanout=fanout,
            height=h,
            database_size=database_size,
        )

    # Shared-slope regression: log v = a_series - i * s.
    mean_i = sum(levels) / len(levels)
    denom = sum((i - mean_i) ** 2 for i in levels)
    log_x = {i: math.log(xs[i]) for i in levels}
    log_y = {i: math.log(ys[i]) for i in levels}
    mean_lx = sum(log_x.values()) / len(levels)
    mean_ly = sum(log_y.values()) / len(levels)
    # Stack both series; the shared slope is the average of per-series
    # least-squares slopes (identical denominators make this exact for the
    # stacked problem).
    slope_x = sum((i - mean_i) * (log_x[i] - mean_lx) for i in levels) / denom
    slope_y = sum((i - mean_i) * (log_y[i] - mean_ly) for i in levels) / denom
    s = -(slope_x + slope_y) / 2.0  # s = log rho
    a_x = mean_lx + s * mean_i
    a_y = mean_ly + s * mean_i
    return CostModel(
        c1=math.exp(a_x) / fanout,
        c2=math.exp(a_y) / fanout,
        rho=math.exp(s),
        fanout=fanout,
        height=h,
        database_size=database_size,
    )


def fit_from_stats(
    stats: QueryStats,
    fanout: float,
) -> CostModel:
    """Convenience: fit directly from merged :class:`QueryStats`."""
    xs, ys = per_level_averages(stats)
    return fit_cost_model(xs, ys, fanout, stats.database_size)


def mean_fanout(tree) -> float:
    """Average number of children per C-tree node — the ``k`` of Eqn. (13).

    Counts graphs at leaves and nodes at internal nodes, averaged over all
    tree nodes.
    """
    counts: list[int] = []

    def walk(node) -> None:
        counts.append(node.fanout)
        if not node.is_leaf:
            for child in node.children:
                walk(child)

    walk(tree.root)
    return sum(counts) / len(counts) if counts else 0.0


