"""Unit tests for the C-tree structure (Section 5)."""

import pytest

from repro.exceptions import ConfigError, IndexError_
from repro.graphs.labelspace import global_labelspace, label_context
from repro.obs.metrics import global_registry
from repro.ctree.tree import CTree

from conftest import path_graph, random_labeled_graph, triangle


def make_tree(**kwargs) -> CTree:
    kwargs.setdefault("min_fanout", 2)
    return CTree(**kwargs)


class TestConfig:
    def test_defaults_follow_paper(self):
        tree = CTree()
        assert tree.min_fanout == 20
        assert tree.max_fanout == 39

    def test_min_fanout_lower_bound(self):
        with pytest.raises(ConfigError):
            CTree(min_fanout=1)

    def test_split_feasibility_enforced(self):
        with pytest.raises(ConfigError):
            CTree(min_fanout=5, max_fanout=6)

    def test_unknown_mapping_method(self):
        with pytest.raises(ConfigError):
            CTree(mapping_method="bogus")

    def test_unknown_policies(self):
        with pytest.raises(ConfigError):
            CTree(insert_policy="bogus")
        with pytest.raises(ConfigError):
            CTree(split_policy="bogus")


class TestInsert:
    def test_empty_tree(self):
        tree = make_tree()
        assert len(tree) == 0
        tree.validate()

    def test_single_insert(self):
        tree = make_tree()
        assert tree.extend([triangle()]) == [0]
        assert len(tree) == 1
        assert tree.get(0) == triangle()
        tree.validate(deep=True)

    def test_get_missing_raises(self):
        with pytest.raises(IndexError_):
            make_tree().get(0)

    def test_splits_keep_invariants(self, rng):
        tree = make_tree(min_fanout=2, max_fanout=3)
        tree.extend(random_labeled_graph(rng, rng.randrange(3, 8))
                    for _ in range(25))
        assert tree.height() >= 2
        tree.validate(deep=True)

    @pytest.mark.parametrize("insert_policy", ["random", "min_volume", "min_overlap"])
    def test_all_insert_policies_build_valid_trees(self, insert_policy, rng):
        tree = make_tree(min_fanout=2, max_fanout=3, insert_policy=insert_policy)
        tree.extend(random_labeled_graph(rng, rng.randrange(2, 6))
                    for _ in range(15))
        tree.validate()

    @pytest.mark.parametrize("split_policy", ["random", "linear"])
    def test_all_split_policies_build_valid_trees(self, split_policy, rng):
        tree = make_tree(min_fanout=2, max_fanout=3, split_policy=split_policy)
        tree.extend(random_labeled_graph(rng, rng.randrange(2, 6))
                    for _ in range(15))
        tree.validate()


class TestDelete:
    def test_delete_returns_graph(self):
        tree = make_tree()
        tree.extend([triangle()])
        assert tree.delete_many([0]) == [triangle()]
        assert len(tree) == 0
        tree.validate()

    def test_delete_missing_raises(self):
        with pytest.raises(IndexError_):
            make_tree().delete_many([9])

    def test_delete_shrinks_closures(self):
        tree = make_tree()
        tree.extend([path_graph(["A", "B"]), path_graph(["X", "Y"])])
        tree.delete_many([1])
        x = global_labelspace().vertex_id("X")
        assert label_context(tree.root.closure).vhist.get(x, 0) == 0

    def test_delete_with_underflow_merges(self, rng):
        tree = make_tree(min_fanout=2, max_fanout=3)
        tree.extend(random_labeled_graph(rng, rng.randrange(3, 7))
                    for _ in range(20))
        ids = list(tree.graph_ids())
        rng.shuffle(ids)
        merges = global_registry().counter("ctree.underflow_merges")
        redistributes = global_registry().counter(
            "ctree.underflow_redistributes")
        before = merges.value + redistributes.value
        for gid in ids[:12]:
            tree.delete_many([gid], auto_compact=False)
            tree.validate(deep=True)
        assert len(tree) == 8
        # Underflow was resolved against a sibling, not by reinsertion.
        assert merges.value + redistributes.value > before

    def test_delete_everything(self, rng):
        tree = make_tree(min_fanout=2, max_fanout=3)
        tree.extend(random_labeled_graph(rng, 4) for _ in range(12))
        for gid in list(tree.graph_ids()):
            tree.delete_many([gid], auto_compact=False)
            tree.validate(deep=True)
        assert len(tree) == 0
        assert tree.root.is_leaf and tree.root.closure is None

    def test_interleaved_insert_delete(self, rng):
        tree = make_tree(min_fanout=2, max_fanout=3)
        alive = []
        for step in range(60):
            if alive and rng.random() < 0.4:
                victim = alive.pop(rng.randrange(len(alive)))
                tree.delete_many([victim], seed=step)
            else:
                alive += tree.extend(
                    [random_labeled_graph(rng, rng.randrange(2, 6))],
                    seed=step)
            tree.validate(deep=True)
            assert sorted(tree.graph_ids()) == sorted(alive)
            assert sorted(gid for gid, _ in tree.iter_graphs()) \
                == sorted(alive)


class TestStructureAccessors:
    def test_len_contains_iter(self, rng):
        tree = make_tree()
        tree.extend(random_labeled_graph(rng, 4) for _ in range(5))
        assert len(tree) == 5
        assert 3 in tree
        assert 9 not in tree
        assert sorted(gid for gid, _ in tree.graphs()) == list(range(5))

    def test_repr(self):
        tree = make_tree()
        assert "|D|=0" in repr(tree)

    def test_node_count_grows(self, rng):
        tree = make_tree(min_fanout=2, max_fanout=3)
        tree.extend(random_labeled_graph(rng, 4) for _ in range(20))
        assert tree.node_count() > 1
