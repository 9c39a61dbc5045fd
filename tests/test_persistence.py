"""C-tree persistence: the one saved form (a ``.ctp`` page file) round
trips, and the size accounting of Fig. 6(a) stays pinned."""

import json
from pathlib import Path

import pytest

from repro.exceptions import ConfigError
from repro.ctree.bulkload import bulk_load
from repro.ctree.diskindex import DiskCTree
from repro.ctree.persistence import index_size_bytes, tree_to_dict
from repro.ctree.saved import open_index
from repro.ctree.subgraph_query import subgraph_query
from repro.ctree.tree import CTree
from repro.datasets.queries import generate_subgraph_queries
from repro.graphs.io import load_graph_database

from conftest import random_labeled_graph, triangle

_DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def loaded_tree(tmp_path_factory):
    import random

    rng = random.Random(3)
    graphs = [random_labeled_graph(rng, rng.randrange(3, 8)) for _ in range(25)]
    return bulk_load(graphs, min_fanout=2, max_fanout=4), graphs


def _reopened(tree, path) -> DiskCTree:
    DiskCTree.create(tree, path).close()
    return DiskCTree.open(path)


class TestRoundtrip:
    def test_dict_roundtrip_preserves_structure(self, loaded_tree):
        """The document ``index_size_bytes`` measures holds every graph
        and every node, and survives JSON unchanged."""
        tree, _ = loaded_tree
        data = tree_to_dict(tree)
        assert json.loads(json.dumps(data)) == data
        assert len(data["graphs"]) == len(tree)

        def count(node):
            return 1 + sum(count(c) for c in node.get("children", []))

        assert count(data["root"]) == tree.node_count()

    def test_file_roundtrip_preserves_answers(self, loaded_tree, tmp_path):
        tree, graphs = loaded_tree
        with _reopened(tree, tmp_path / "tree.ctp") as restored:
            assert len(restored) == len(tree)
            assert restored.height == tree.height()
            restored.validate()
            for q in generate_subgraph_queries(graphs, 3, 3, seed=1):
                original, _ = subgraph_query(tree, q)
                roundtripped, _ = subgraph_query(restored, q)
                assert sorted(original) == sorted(roundtripped)

    def test_config_preserved(self, loaded_tree, tmp_path):
        tree, _ = loaded_tree
        with _reopened(tree, tmp_path / "tree.ctp") as restored:
            assert restored.config() == tree.config()

    def test_empty_tree(self, tmp_path):
        with _reopened(CTree(min_fanout=2), tmp_path / "empty.ctp") as restored:
            assert len(restored) == 0

    def test_mutable_after_load(self, loaded_tree, tmp_path):
        tree, _ = loaded_tree
        with _reopened(tree, tmp_path / "tree.ctp") as restored:
            assert restored.extend([triangle()]) == [len(tree)]
            restored.validate()


class TestErrors:
    def test_bad_json_file(self, tmp_path):
        """A JSON tree snapshot is not a saved index: the error names
        the two forms that are."""
        path = tmp_path / "tree.json"
        path.write_text("{}")
        with pytest.raises(ConfigError, match=r"\*\.ctp .* shard directory") \
                as exc:
            open_index(path)
        assert "\n" not in str(exc.value)


class TestSizeAccounting:
    def test_size_with_and_without_graphs(self, loaded_tree):
        tree, _ = loaded_tree
        full = index_size_bytes(tree)
        overhead = index_size_bytes(tree, include_graphs=False)
        assert 0 < overhead < full

    def test_size_grows_with_database(self):
        import random

        rng = random.Random(4)
        small = bulk_load(
            [random_labeled_graph(rng, 5) for _ in range(5)], min_fanout=2
        )
        big = bulk_load(
            [random_labeled_graph(rng, 5) for _ in range(40)], min_fanout=2
        )
        assert index_size_bytes(big) > index_size_bytes(small)

    def test_serialized_is_valid_json(self, loaded_tree):
        tree, _ = loaded_tree
        text = json.dumps(tree_to_dict(tree), separators=(",", ":"))
        assert json.loads(text)["format"] == 1
        assert len(text.encode("utf-8")) == index_size_bytes(tree)

    def test_golden_tree_size_pinned(self):
        """Fig. 6(a)'s quantity on the golden tree, to the byte: the
        benchmarks' ``index_bytes_per_graph`` for an in-memory tree."""
        tree = bulk_load(load_graph_database(_DATA / "golden_chem.jsonl"),
                         min_fanout=3)
        assert index_size_bytes(tree) == 16030
        assert index_size_bytes(tree, include_graphs=False) == 11925
