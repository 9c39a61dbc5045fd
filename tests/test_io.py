"""Unit tests for repro.graphs.io and the networkx conversion the tests
cross-validate through (``oracles.interop``)."""

import json

import pytest

from repro.exceptions import GraphError, PersistenceError
from repro.graphs.graph import Graph
from repro.graphs.io import load_graph_database, save_graph_database
from oracles.interop import from_networkx, to_networkx

from conftest import triangle


def _line(graph: Graph) -> str:
    return json.dumps(graph.to_dict())


class TestJsonRoundtrip:
    def test_single_graph(self):
        g = Graph(["A", "B"], [(0, 1, "x")], name="g")
        assert Graph.from_dict(json.loads(_line(g))) == g

    def test_malformed_json_raises(self, tmp_path):
        path = tmp_path / "db.jsonl"
        path.write_text("{not json\n")
        with pytest.raises(PersistenceError):
            load_graph_database(path)

    def test_wrong_shape_raises(self, tmp_path):
        path = tmp_path / "db.jsonl"
        path.write_text('{"foo": 1}\n')
        with pytest.raises(PersistenceError):
            load_graph_database(path)


class TestDatabaseFiles:
    def test_roundtrip(self, tmp_path):
        graphs = [triangle(), Graph(["X"]), Graph(["Y", "Z"], [(0, 1)])]
        path = tmp_path / "db.jsonl"
        count = save_graph_database(graphs, path)
        assert count == 3
        loaded = load_graph_database(path)
        assert loaded == graphs

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "db.jsonl"
        path.write_text(_line(triangle()) + "\n\n")
        assert len(load_graph_database(path)) == 1

    def test_corrupt_line_reports_location(self, tmp_path):
        path = tmp_path / "db.jsonl"
        path.write_text(_line(triangle()) + "\nnot json\n")
        with pytest.raises(PersistenceError, match=":2"):
            load_graph_database(path)


class TestNetworkxInterop:
    def test_roundtrip(self):
        g = Graph(["A", "B", "C"], [(0, 1, "s"), (1, 2, "d")])
        nxg = to_networkx(g)
        assert nxg.number_of_nodes() == 3
        assert nxg.nodes[0]["label"] == "A"
        back = from_networkx(nxg)
        assert back == g

    def test_missing_label_attr_raises(self):
        import networkx as nx

        nxg = nx.Graph()
        nxg.add_node(0)
        with pytest.raises(GraphError):
            from_networkx(nxg)

    def test_arbitrary_node_ids_renumbered(self):
        import networkx as nx

        nxg = nx.Graph()
        nxg.add_node("x", label="A")
        nxg.add_node("y", label="B")
        nxg.add_edge("x", "y")
        g = from_networkx(nxg)
        assert g.num_vertices == 2
        assert g.num_edges == 1
        assert {g.label(0), g.label(1)} == {"A", "B"}
