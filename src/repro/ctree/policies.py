"""Insertion and split policies (Sections 5.2-5.3).

Insertion must choose which child subtree receives a new graph; splitting
must partition an overflowing node's children into two groups.  The paper
lists three options for each and picks *minimum volume increase* for
insertion and *linear pivot-based partitioning* for splits as the
quality/time trade-off; both defaults are implemented here alongside the
alternatives, which the ablation benchmarks exercise.

Every policy operates on a plain sequence of
:class:`~repro.graphs.closure.GraphClosure` summaries (one per child), so
the tree can hand it children that are loaded from a node store on demand
rather than live node objects.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, Optional, Sequence

from repro.exceptions import ConfigError
from repro.graphs.closure import GraphClosure, GraphLike
from repro.ctree.node import Mapper

#: ``(closures, graph, mapper, rng) -> (index, enlarged)``: the chosen
#: child, plus that child's closure already enlarged by the graph when the
#: policy computed it anyway (else ``None`` and the caller folds itself).
InsertPolicy = Callable[..., tuple[int, Optional[GraphClosure]]]
SplitPolicy = Callable[..., tuple[list[int], list[int]]]


# ----------------------------------------------------------------------
# Insertion: choose a child index for a new graph
# ----------------------------------------------------------------------
def choose_closure_random(
    closures: Sequence[GraphClosure], graph: GraphLike, mapper: Mapper,
    rng: random.Random,
) -> tuple[int, None]:
    """Uniformly random child."""
    return rng.randrange(len(closures)), None


def choose_closure_min_volume(
    closures: Sequence[GraphClosure], graph: GraphLike, mapper: Mapper,
    rng: random.Random,
) -> tuple[int, GraphClosure]:
    """The child whose closure grows the least in (log-)volume when the
    graph is added — the paper's default (linear in the fanout) — and
    that child's enlarged closure, so a caller that descends the tree
    reuses the mapping instead of folding the graph a second time.

    Folding a graph into a closure can only grow it, so a zero volume
    increase is a global minimum; scanning in order and returning the
    first zero yields the same child as the full scan (ties break on
    the lowest index either way) while skipping the remaining mappings.
    On a saturated tree most inserts hit such a child early, which is
    what keeps append cost flat as the database grows.
    """
    best_index, best_increase = 0, float("inf")
    best_enlarged: GraphClosure | None = None
    for i, closure in enumerate(closures):
        enlarged = mapper(closure, graph).closure()
        increase = enlarged.log_volume() - closure.log_volume()
        if increase <= 0.0:
            return i, enlarged
        if increase < best_increase:
            best_index, best_increase, best_enlarged = i, increase, enlarged
    assert best_enlarged is not None
    return best_index, best_enlarged


#: The delete path's merge-partner choice: the sibling absorbing an
#: underflowing node's closure (in the graph seat) at the least volume
#: growth; the enlarged closure returned is exactly the merged summary.
choose_merge_sibling = choose_closure_min_volume


def choose_closure_min_overlap(
    closures: Sequence[GraphClosure], graph: GraphLike, mapper: Mapper,
    rng: random.Random,
) -> tuple[int, None]:
    """The child whose enlargement least increases its similarity overlap
    with its siblings (quadratic in the fanout)."""
    best_index, best_increase = 0, float("inf")
    for i, closure in enumerate(closures):
        enlarged = mapper(closure, graph).closure()
        increase = 0.0
        for j, other in enumerate(closures):
            if j == i:
                continue
            before = mapper(closure, other).similarity()
            after = mapper(enlarged, other).similarity()
            increase += after - before
        if increase < best_increase:
            best_index, best_increase = i, increase
    return best_index, None


CLOSURE_INSERT_POLICIES: dict[str, InsertPolicy] = {
    "random": choose_closure_random,
    "min_volume": choose_closure_min_volume,
    "min_overlap": choose_closure_min_overlap,
}


# ----------------------------------------------------------------------
# Splitting: partition child indices into two groups
# ----------------------------------------------------------------------
def partition_closures_random(
    closures: Sequence[GraphClosure],
    mapper: Mapper,
    rng: random.Random,
    min_fanout: int,
) -> tuple[list[int], list[int]]:
    """Random even partition."""
    indices = list(range(len(closures)))
    rng.shuffle(indices)
    half = len(indices) // 2
    return (indices[:half], indices[half:])


def partition_closures_linear(
    closures: Sequence[GraphClosure],
    mapper: Mapper,
    rng: random.Random,
    min_fanout: int,
) -> tuple[list[int], list[int]]:
    """Linear pivot partitioning (the paper's default, FastMap-inspired).

    1. pick a random child g0;
    2. g1 := farthest child from g0 (closure distance);
    3. g2 := farthest child from g1 — (g1, g2) is the pivot;
    4. sort children by ``d(gi, g1) - d(gi, g2)`` and cut in half.

    Cost: 3 distance sweeps, i.e. linear in the fanout.
    """
    def distance(a: GraphClosure, b: GraphClosure) -> float:
        return mapper(a, b).edit_cost()

    g0 = rng.randrange(len(closures))
    d0 = [distance(c, closures[g0]) for c in closures]
    g1 = max(range(len(closures)), key=lambda i: d0[i])
    d1 = [distance(c, closures[g1]) for c in closures]
    g2 = max(range(len(closures)), key=lambda i: d1[i])
    d2 = [distance(c, closures[g2]) for c in closures]

    order = sorted(range(len(closures)), key=lambda i: d1[i] - d2[i])
    half = len(order) // 2
    return (order[:half], order[half:])


def partition_closures_optimal(
    closures: Sequence[GraphClosure],
    mapper: Mapper,
    rng: random.Random,
    min_fanout: int,
) -> tuple[list[int], list[int]]:
    """Exhaustive partitioning minimizing the sum of group (log-)volumes.

    Exponential in the fanout; refuse beyond 16 children.  Provided for the
    ablation study and for correctness tests on tiny trees.
    """
    n = len(closures)
    if n > 16:
        raise ConfigError(f"optimal split limited to 16 children, got {n}")

    def group_log_volume(indices: tuple[int, ...]) -> float:
        closure = closures[indices[0]].copy()
        for i in indices[1:]:
            closure = mapper(closure, closures[i]).closure()
        return closure.log_volume()

    best: tuple[list[int], list[int]] | None = None
    best_cost = float("inf")
    lower = max(min_fanout, 1)
    indices = list(range(n))
    # Fix index 0 in the first group to halve the symmetric search space.
    for size in range(lower, n - lower + 1):
        for combo in itertools.combinations(indices[1:], size - 1):
            group1 = (0, *combo)
            group2 = tuple(i for i in indices if i not in group1)
            if len(group2) < lower:
                continue
            cost = group_log_volume(group1) + group_log_volume(group2)
            if cost < best_cost:
                best_cost = cost
                best = (list(group1), list(group2))
    if best is None:
        raise ConfigError(
            f"cannot split {n} children with min_fanout={min_fanout}"
        )
    return best


CLOSURE_SPLIT_POLICIES: dict[str, SplitPolicy] = {
    "random": partition_closures_random,
    "linear": partition_closures_linear,
    "optimal": partition_closures_optimal,
}


def _resolve(registry: dict, kind: str, name: str):
    try:
        return registry[name]
    except KeyError:
        raise ConfigError(
            f"unknown {kind} policy {name!r}; choose from {sorted(registry)}"
        ) from None


def resolve_closure_insert_policy(name: str) -> InsertPolicy:
    """Look up an insert policy by name."""
    return _resolve(CLOSURE_INSERT_POLICIES, "insert", name)


def resolve_closure_split_policy(name: str) -> SplitPolicy:
    """Look up a split policy by name."""
    return _resolve(CLOSURE_SPLIT_POLICIES, "split", name)
