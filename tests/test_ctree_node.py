"""Unit tests for repro.ctree.node."""

from repro.graphs.closure import GraphClosure
from repro.graphs.labelspace import global_labelspace, label_context
from repro.matching.nbm import nbm_mapping
from repro.ctree.node import CTreeNode, LeafEntry, fold_closure
from oracles.histogram import LabelHistogram

from conftest import path_graph, triangle


def counts(g):
    """The label counts of ``g``'s summary, vertex and edge."""
    summary = label_context(g)
    return summary.vhist, summary.ehist


class TestLeafEntry:
    def test_fields(self):
        e = LeafEntry(7, triangle())
        assert e.graph_id == 7
        assert e.graph.num_vertices == 3
        assert "#7" in repr(e)


class TestNodeStructure:
    def test_add_remove_child(self):
        parent = CTreeNode(is_leaf=False)
        child = CTreeNode(is_leaf=True)
        parent.add_child(child)
        assert parent.children == [child]
        assert parent.fanout == 1
        parent.children.remove(child)
        assert parent.fanout == 0

    def test_height(self):
        leaf = CTreeNode(is_leaf=True)
        assert leaf.height() == 0
        mid = CTreeNode(is_leaf=False)
        mid.add_child(leaf)
        root = CTreeNode(is_leaf=False)
        root.add_child(mid)
        assert root.height() == 2

    def test_child_accessors(self):
        entry = LeafEntry(0, triangle())
        closure = CTreeNode.child_closure(entry)
        assert isinstance(closure, GraphClosure)
        assert LabelHistogram.of(closure) == LabelHistogram.of(entry.graph)
        node = CTreeNode(is_leaf=True)
        node.add_child(entry)
        node.rebuild_summary(nbm_mapping)
        assert CTreeNode.child_closure(node) is node.closure

    def test_stored_closure_decodes_lazily_and_rewrites_verbatim(self):
        """A node loaded from a record keeps its closure serialized until
        first use, hands the same dict back while unchanged, and drops it
        (its histogram with it) once the closure is replaced."""
        stored = GraphClosure.from_graph(triangle()).to_dict()
        node = CTreeNode(True, [], stored_closure=stored,
                         decode=GraphClosure.from_dict)
        assert node.stored_closure() is stored
        assert node.closure == GraphClosure.from_graph(triangle())
        assert counts(node.closure) == counts(triangle())
        assert node.stored_closure() is stored
        other = GraphClosure.from_graph(path_graph(["A", "B"]))
        node.closure = other
        assert node.stored_closure() is None
        assert counts(node.closure) == counts(other)
        assert node.closure is other

    def test_iter_leaf_entries(self):
        leaf1 = CTreeNode(is_leaf=True)
        leaf1.add_child(LeafEntry(0, triangle()))
        leaf2 = CTreeNode(is_leaf=True)
        leaf2.add_child(LeafEntry(1, path_graph(["A", "B"])))
        leaf2.add_child(LeafEntry(2, path_graph(["C", "D"])))
        root = CTreeNode(is_leaf=False)
        root.add_child(leaf1)
        root.add_child(leaf2)
        ids = [e.graph_id for e in root.iter_leaf_entries()]
        assert ids == [0, 1, 2]
        assert root.count_nodes() == 3


class TestSummaries:
    def test_extend_summary_first_graph(self):
        node = CTreeNode(is_leaf=True)
        node.closure = fold_closure(node.closure, triangle(), nbm_mapping)
        assert node.closure is not None
        assert node.closure.num_vertices == 3
        assert label_context(node.closure).dominates(
            label_context(triangle()))

    def test_extend_summary_accumulates(self):
        node = CTreeNode(is_leaf=True)
        g1 = path_graph(["A", "B"])
        g2 = path_graph(["A", "C"])
        node.closure = fold_closure(node.closure, g1, nbm_mapping)
        node.closure = fold_closure(node.closure, g2, nbm_mapping)
        assert label_context(node.closure).dominates(label_context(g1))
        assert label_context(node.closure).dominates(label_context(g2))

    def test_rebuild_summary_shrinks(self):
        node = CTreeNode(is_leaf=True)
        g1 = path_graph(["A", "B"])
        g2 = path_graph(["X", "Y"])
        node.add_child(LeafEntry(0, g1))
        node.add_child(LeafEntry(1, g2))
        node.rebuild_summary(nbm_mapping)
        with_both = label_context(node.closure)
        del node.children[1]
        node.rebuild_summary(nbm_mapping)
        # After rebuilding without g2, X must no longer be counted.
        x = global_labelspace().vertex_id("X")
        assert with_both.vhist.get(x, 0) == 1
        assert label_context(node.closure).vhist.get(x, 0) == 0
