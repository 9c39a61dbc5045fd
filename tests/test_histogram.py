"""Unit tests for repro.graphs.histogram."""

import pytest

from repro.graphs.closure import closure_under_mapping
from repro.graphs.graph import Graph
from repro.graphs.histogram import LabelHistogram

from conftest import path_graph, triangle


class TestOfGraph:
    def test_counts_vertex_labels(self):
        h = LabelHistogram.of(Graph(["C", "C", "O"], [(0, 1)]))
        assert h[(0, "C")] == 2
        assert h[(0, "O")] == 1
        assert h[(0, "N")] == 0

    def test_counts_edge_labels(self):
        h = LabelHistogram.of(Graph(["A", "B", "C"], [(0, 1, "s"), (1, 2, "d")]))
        assert h[(1, "s")] == 1
        assert h[(1, "d")] == 1

    def test_totals(self):
        h = LabelHistogram.of(triangle())
        totals = h.to_dict()
        assert sum(totals["vertex"].values()) == 3
        assert sum(totals["edge"].values()) == 3

    def test_rejects_unknown_type(self):
        with pytest.raises(TypeError):
            LabelHistogram.of("nope")


class TestOfClosure:
    def test_multi_label_vertex_counts_toward_each_label(self):
        g1 = Graph(["A", "B"], [(0, 1)])
        g2 = Graph(["A", "C"], [(0, 1)])
        c = closure_under_mapping(g1, g2, [(0, 0), (1, 1)])
        h = LabelHistogram.of(c)
        assert h[(0, "B")] == 1
        assert h[(0, "C")] == 1

    def test_epsilon_not_counted(self):
        g1 = Graph(["A", "B"], [(0, 1)])
        g2 = Graph(["A"])
        c = closure_under_mapping(g1, g2, [(0, 0), (1, None)])
        h = LabelHistogram.of(c)
        # Vertex 1 = {B, ε}: only B counts.
        assert sum(h.to_dict()["vertex"].values()) == 2

    def test_closure_histogram_dominates_members(self):
        g1 = path_graph(["A", "B", "C"])
        g2 = path_graph(["A", "B", "D"])
        c = closure_under_mapping(g1, g2, [(i, i) for i in range(3)])
        h = LabelHistogram.of(c)
        assert h.dominates(LabelHistogram.of(g1))
        assert h.dominates(LabelHistogram.of(g2))


class TestDominance:
    def test_reflexive(self):
        h = LabelHistogram.of(triangle())
        assert h.dominates(h)

    def test_subgraph_histogram_dominated(self):
        g = triangle()
        sub = g.subgraph([0, 1])
        assert LabelHistogram.of(g).dominates(LabelHistogram.of(sub))
        assert not LabelHistogram.of(sub).dominates(LabelHistogram.of(g))

    def test_different_labels_not_dominated(self):
        a = LabelHistogram.of(Graph(["A"]))
        b = LabelHistogram.of(Graph(["B"]))
        assert not a.dominates(b)
        assert not b.dominates(a)

    def test_empty_dominated_by_all(self):
        empty = LabelHistogram.of(Graph())
        assert LabelHistogram.of(triangle()).dominates(empty)


class TestMerge:
    def test_merged_is_pointwise_max(self):
        a = LabelHistogram.of(Graph(["A", "A"]))
        b = LabelHistogram.of(Graph(["A", "B"]))
        m = a.merged(b)
        assert m[(0, "A")] == 2
        assert m[(0, "B")] == 1
        assert m.dominates(a) and m.dominates(b)

    def test_added_is_pointwise_sum(self):
        a = LabelHistogram.of(Graph(["A"]))
        s = a.added(a)
        assert s[(0, "A")] == 2

    def test_equality(self):
        assert LabelHistogram.of(triangle()) == LabelHistogram.of(triangle())

    def test_to_dict_shape(self):
        d = LabelHistogram.of(Graph(["A", "B"], [(0, 1)])).to_dict()
        assert set(d) == {"vertex", "edge"}
        assert d["vertex"]["'A'"] == 1
