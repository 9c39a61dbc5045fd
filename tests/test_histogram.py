"""Unit tests for the set-form label histogram (``oracles.histogram``)."""

import pytest

from repro.graphs.closure import closure_under_mapping
from repro.graphs.graph import Graph
from oracles.histogram import LabelHistogram

from conftest import path_graph, triangle


class TestOfGraph:
    def test_counts_vertex_labels(self):
        h = LabelHistogram.of(Graph(["C", "C", "O"], [(0, 1)]))
        assert h == LabelHistogram({(0, "C"): 2, (0, "O"): 1, (1, None): 1})

    def test_counts_edge_labels(self):
        h = LabelHistogram.of(Graph(["A", "B", "C"], [(0, 1, "s"), (1, 2, "d")]))
        assert h == LabelHistogram({(0, "A"): 1, (0, "B"): 1, (0, "C"): 1,
                                    (1, "s"): 1, (1, "d"): 1})

    def test_totals(self):
        h = LabelHistogram.of(triangle())
        assert h == LabelHistogram({(0, "A"): 1, (0, "B"): 1, (0, "C"): 1,
                                    (1, None): 3})

    def test_rejects_unknown_type(self):
        with pytest.raises(TypeError):
            LabelHistogram.of("nope")


class TestOfClosure:
    def test_multi_label_vertex_counts_toward_each_label(self):
        g1 = Graph(["A", "B"], [(0, 1)])
        g2 = Graph(["A", "C"], [(0, 1)])
        c = closure_under_mapping(g1, g2, [(0, 0), (1, 1)])
        h = LabelHistogram.of(c)
        assert h == LabelHistogram({(0, "A"): 1, (0, "B"): 1, (0, "C"): 1,
                                    (1, None): 1})

    def test_epsilon_not_counted(self):
        g1 = Graph(["A", "B"], [(0, 1)])
        g2 = Graph(["A"])
        c = closure_under_mapping(g1, g2, [(0, 0), (1, None)])
        h = LabelHistogram.of(c)
        # Vertex 1 = {B, ε}: only B counts; so does edge {None, ε}.
        assert h == LabelHistogram({(0, "A"): 1, (0, "B"): 1, (1, None): 1})

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
    def test_equality(self):
        assert LabelHistogram.of(triangle()) == LabelHistogram.of(triangle())
