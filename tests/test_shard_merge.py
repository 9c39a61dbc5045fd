"""Property tests for the sharded K-NN merge theorem.

The sharded engine's correctness rests on one claim (see the
:mod:`repro.ctree.shards` module docstring): if every shard returns its
*exact* top-k under the canonical total order ``(-similarity,
global_id)``, then merging the per-shard lists under the same order and
cutting to k yields the global canonical top-k — for any partition of
the database, any k, and any tie structure.  These tests exercise that
claim directly on synthetic similarity tables with adversarially heavy
ties, independent of any tree traversal.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ctree.shards import Shard, ShardSet, merge_knn, merge_subgraph


def _make_shardset(assignment):
    """A ShardSet whose shard ``s`` holds the global ids assigned to it
    (ascending, as the placement function guarantees)."""
    shard_count = max(assignment) + 1
    gid_lists = [[] for _ in range(shard_count)]
    for gid, s in enumerate(assignment):
        gid_lists[s].append(gid)
    return ShardSet([Shard(gids=gids) for gids in gid_lists])


# Similarities drawn from a tiny integer set force many boundary ties —
# exactly the inputs where a traversal-order merge would go wrong.
_SIMS = st.lists(st.integers(min_value=0, max_value=3).map(float),
                 min_size=1, max_size=40)


@st.composite
def _partitioned_sims(draw):
    sims = draw(_SIMS)
    shard_count = draw(st.integers(min_value=1, max_value=5))
    assignment = draw(st.lists(
        st.integers(min_value=0, max_value=shard_count - 1),
        min_size=len(sims), max_size=len(sims),
    ))
    # Normalize so every shard index up to max(assignment) is used.
    k = draw(st.integers(min_value=1, max_value=len(sims) + 3))
    return sims, assignment, k


@settings(max_examples=200, deadline=None)
@given(_partitioned_sims())
def test_merge_knn_equals_global_canonical_topk(case):
    sims, assignment, k = case
    sset = _make_shardset(assignment)

    # Exact per-shard canonical top-k in *local* id space.
    per_shard = []
    for shard in sset.shards:
        local = [(i, sims[gid]) for i, gid in enumerate(shard.gids)]
        local.sort(key=lambda t: (-t[1], t[0]))
        per_shard.append(local[:k])

    expected = sorted(
        ((gid, sim) for gid, sim in enumerate(sims)),
        key=lambda t: (-t[1], t[0]),
    )[:k]
    assert merge_knn(per_shard, sset, k) == expected


@settings(max_examples=200, deadline=None)
@given(_partitioned_sims())
def test_merge_knn_boundary_ties_resolved_by_id(case):
    """Every graph tied with the kth-best that the merge keeps must
    have a smaller id than every tied graph it drops."""
    sims, assignment, k = case
    sset = _make_shardset(assignment)
    per_shard = []
    for shard in sset.shards:
        local = [(i, sims[gid]) for i, gid in enumerate(shard.gids)]
        local.sort(key=lambda t: (-t[1], t[0]))
        per_shard.append(local[:k])
    merged = merge_knn(per_shard, sset, k)
    if len(merged) < min(k, len(sims)) or not merged:
        return
    cutoff_sim = merged[-1][1]
    kept_tied = {gid for gid, sim in merged if sim == cutoff_sim}
    dropped_tied = {gid for gid, sim in enumerate(sims)
                    if sim == cutoff_sim and gid not in kept_tied}
    if dropped_tied:
        assert max(kept_tied) < min(dropped_tied)


@settings(max_examples=200, deadline=None)
@given(_partitioned_sims())
def test_merge_subgraph_is_sorted_global_union(case):
    sims, assignment, _ = case
    sset = _make_shardset(assignment)
    # Every shard "answers" its even-positioned local ids.
    per_shard = [
        [i for i in range(len(shard.gids)) if i % 2 == 0]
        for shard in sset.shards
    ]
    expected = sorted(
        shard.gids[i]
        for shard in sset.shards
        for i in range(0, len(shard.gids), 2)
    )
    assert merge_subgraph(per_shard, sset) == expected


def test_merge_knn_k_larger_than_database():
    sset = _make_shardset([0, 1, 0, 1])
    sims = [2.0, 2.0, 1.0, 3.0]
    per_shard = []
    for shard in sset.shards:
        local = [(i, sims[gid]) for i, gid in enumerate(shard.gids)]
        local.sort(key=lambda t: (-t[1], t[0]))
        per_shard.append(local)
    assert merge_knn(per_shard, sset, 10) == [
        (3, 3.0), (0, 2.0), (1, 2.0), (2, 1.0)
    ]
