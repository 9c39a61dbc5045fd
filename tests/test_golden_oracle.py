"""Golden-answer regression test.

``tests/data/golden_chem.jsonl`` is a frozen 24-graph chemical database
and ``golden_answers.json`` holds the expected subgraph-query answer sets
and k-NN results, computed once and committed.  Any change to matching,
closures, traversal, serialization, or the storage stack that alters
query answers fails here — including "both sides changed the same way"
drift that differential tests cannot see.

If a change is *intended* to alter answers (it should not be: subgraph
answers are exact by definition), regenerate the JSON and justify it in
the commit.

``golden_stats.json`` pins the *work* the same queries do — every
deterministic counter of their stats, as measured before the disk record
format made leaf entries carry their graph's histogram (format 3) — so a
change that removes or adds a test, not only one that changes an answer,
fails here; and the leaf-level count tests pin the mechanism format 3
exists for: a graph record is read only if its entry's histogram passed
(subgraph), only when its entry's Eqn. (7) bound is popped for scoring
(K-NN) — and the node-level one pins what the store's resident set exists
for: a handle decodes a node record once, not once per query.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.graphs.graph import Graph
from repro.graphs.io import load_graph_database
from repro.ctree.bulkload import bulk_load
from repro.ctree.diskindex import DiskCTree
from repro.ctree import store as store_module
from repro.ctree.similarity_query import knn_query, range_query
from repro.ctree.store import decode_graph
from repro.ctree.subgraph_query import subgraph_query
from oracles.histogram import LabelHistogram

from conftest import ORACLES, oracle_answers, stored_graphs

_DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def golden():
    db = load_graph_database(_DATA / "golden_chem.jsonl")
    expected = json.loads((_DATA / "golden_answers.json").read_text())
    return db, expected


@pytest.fixture(scope="module")
def golden_tree(golden):
    db, _ = golden
    return bulk_load(db, min_fanout=3)


@pytest.fixture(scope="module")
def golden_disk(golden_tree, tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "golden.ctp"
    disk = DiskCTree.create(golden_tree, path, page_size=512, cache_pages=32)
    yield disk, path
    disk.close()


class TestGoldenSubgraph:
    @pytest.mark.parametrize("oracle", ORACLES)
    def test_memory_answers_frozen(self, golden, golden_tree, oracle):
        _, expected = golden
        for case in expected["subgraph"]:
            answers = oracle_answers(oracle, golden_tree,
                                     Graph.from_dict(case["query"]))
            assert answers == case["answers"]

    def test_disk_answers_frozen(self, golden, golden_disk):
        _, expected = golden
        disk, _ = golden_disk
        for case in expected["subgraph"]:
            query = Graph.from_dict(case["query"])
            answers, _ = disk.subgraph_query(query)
            assert answers == case["answers"]


class TestGoldenKnn:
    def test_disk_knn_frozen(self, golden, golden_disk):
        db, expected = golden
        disk, _ = golden_disk
        for case in expected["knn"]:
            results, _ = disk.knn_query(db[case["query_id"]], case["k"])
            frozen = [(gid, sim) for gid, sim in case["results"]]
            assert [gid for gid, _ in results] == [g for g, _ in frozen]
            assert [s for _, s in results] == pytest.approx(
                [s for _, s in frozen])

    def test_disk_scores_build_no_graph(
            self, golden, golden_tree, golden_disk, monkeypatch):
        """With ``decode_graph`` refusing every record, disk K-NN and
        range queries under NBM still return the in-memory tree's answers
        and stats: a scored record is compiled into its Alg. 1 context,
        never decoded into a ``Graph``."""
        class Decoded(Exception):
            pass

        def refuse(record):
            raise Decoded

        db, expected = golden
        disk, _ = golden_disk
        monkeypatch.setattr(store_module, "decode_graph", refuse)
        in_range = 0
        for case in expected["knn"]:
            query, k = db[case["query_id"]], case["k"]
            for run in (lambda index, **kw: knn_query(index, query, k, **kw),
                        lambda index, **kw: range_query(index, query, 6.0,
                                                        **kw)):
                answers, stats = run(disk)
                mem_answers, mem_stats = run(golden_tree)
                assert answers == mem_answers
                assert stats.deterministic_dict() == \
                    mem_stats.deterministic_dict()
                assert stats.graphs_scored > 0
            in_range += len(answers)  # the range query's, run last
        assert in_range > 0, "no range query found a graph"


class TestGoldenWork:
    """Counts, not times: what each golden query tests, reads and finds."""

    @pytest.fixture(scope="class")
    def pinned(self):
        return json.loads((_DATA / "golden_stats.json").read_text())

    @pytest.mark.parametrize("oracle", ORACLES)
    def test_subgraph_reads_only_histogram_survivors(
            self, golden, golden_tree, golden_disk, pinned, oracle,
            monkeypatch):
        """Per query: stats equal the pinned ones and the in-memory
        tree's, every leaf entry is histogram-screened, and the graph
        records compiled are exactly the leaf-level histogram survivors:
        as many as the stats count or, by the ``reference`` oracle, the
        stored graphs whose ``LabelHistogram`` dominates the query's.
        Each is read as its target context; no ``Graph`` is decoded."""
        _, expected = golden
        disk, _ = golden_disk
        stored = stored_graphs(golden_tree)
        loads, decoded = [], []
        load_context = disk.store.load_context
        monkeypatch.setattr(
            disk.store, "load_context",
            lambda entry: loads.append(entry.graph_id) or load_context(entry))
        monkeypatch.setattr(
            store_module, "decode_graph",
            lambda record: decoded.append(record) or decode_graph(record))
        skipped = 0
        for case, frozen in zip(expected["subgraph"], pinned["subgraph"]):
            query = Graph.from_dict(case["query"])
            del loads[:]
            _, stats = disk.subgraph_query(query)
            _, mem_stats = subgraph_query(golden_tree, query)
            assert stats.deterministic_dict() == frozen
            assert mem_stats.deterministic_dict() == frozen
            assert stats.histogram_tests == sum(stats.tested_by_level)
            screened = stats.tested_by_level[disk.height]
            survivors = stats.x_by_level[disk.height]
            assert len(loads) == len(set(loads)) == survivors
            assert decoded == []
            if oracle == "reference":
                hist = LabelHistogram.of(query)
                assert sorted(loads) == [
                    gid for gid, g in stored
                    if LabelHistogram.of(g).dominates(hist)]
            skipped += screened - survivors
        assert skipped > 0, "the screen rejected nothing"

    def test_knn_stats_frozen(
            self, golden, golden_tree, golden_disk, pinned, monkeypatch):
        """Per K-NN case: stats equal the pinned ones and the in-memory
        tree's, and a graph record is compiled exactly when Alg. 4 scores
        it — its Eqn. (7) bound, read off the leaf entry, reached the top
        of the heap above the threshold — never to compute that bound."""
        db, expected = golden
        disk, _ = golden_disk
        loads = []
        load_nbm_context = disk.store.load_nbm_context
        monkeypatch.setattr(
            disk.store, "load_nbm_context",
            lambda entry: loads.append(entry.graph_id)
            or load_nbm_context(entry))
        unread = 0
        for case, frozen in zip(expected["knn"], pinned["knn"]):
            query = db[case["query_id"]]
            del loads[:]
            _, stats = disk.knn_query(query, case["k"])
            _, mem_stats = knn_query(golden_tree, query, case["k"])
            assert stats.deterministic_dict() == frozen
            assert mem_stats.deterministic_dict() == frozen
            assert len(loads) == len(set(loads)) == stats.graphs_scored
            unread += len(db) - len(loads)
        assert unread > 0, "every graph was read by every query"

    @staticmethod
    def _golden_pass(handle, golden, pinned):
        """Every golden query once, each checked against its pinned
        stats: ``(stats records, record ids read, record ids of the
        graphs tested, of those NBM-scored)``."""
        db, expected = golden
        reads, tested, scored = [], [], []
        store = handle.store
        load_record, load_context, load_nbm_context = \
            store.load_record, store.load_context, store.load_nbm_context
        store.load_record = \
            lambda record_id: reads.append(record_id) or load_record(record_id)
        store.load_context = \
            lambda entry: tested.append(entry.record) or load_context(entry)
        store.load_nbm_context = \
            lambda entry: scored.append(entry.record) \
            or load_nbm_context(entry)
        try:
            runs = [(handle.subgraph_query(Graph.from_dict(case["query"])),
                     frozen) for case, frozen in zip(expected["subgraph"],
                                                     pinned["subgraph"])]
            runs += [(handle.knn_query(db[case["query_id"]], case["k"]),
                      frozen) for case, frozen in zip(expected["knn"],
                                                      pinned["knn"])]
        finally:
            del store.load_record, store.load_context, store.load_nbm_context
        for (_, stats), frozen in runs:
            assert stats.deterministic_dict() == frozen
        return [stats for (_, stats), _ in runs], reads, tested, scored

    def test_second_pass_reads_no_record(self, golden, golden_disk, pinned):
        """Decode-per-query guard: a cold handle reads each node record
        once over a whole pass, and each graph record once per algorithm
        that reads it — once for the Alg. 2 half of its leaf entry's
        memo, once for the Alg. 1 half.  A second pass reads no record
        at all: every node load is answered by the resident node, every
        graph test and every NBM score by the contexts memoised on the
        resident leaves' entries.  The stats are the pinned ones both
        times."""
        disk, path = golden_disk
        disk.checkpoint()
        node_refs = {ref for ref, _ in disk.nodes()}
        with DiskCTree.open_read_only(path, cache_pages=32) as handle:
            cold, cold_reads, cold_tested, cold_scored = \
                self._golden_pass(handle, golden, pinned)
            warm, warm_reads, warm_tested, warm_scored = \
                self._golden_pass(handle, golden, pinned)
        cold_nodes = [r for r in cold_reads if r in node_refs]
        assert len(cold_nodes) == len(set(cold_nodes)) == len(node_refs) \
            == sum(stats.node_loads for stats in cold)
        assert set(cold_tested) - set(cold_scored), \
            "the first pass verified no graph it did not score"
        assert set(cold_tested) & set(cold_scored), \
            "the first pass read no graph for both halves"
        assert sorted(r for r in cold_reads if r not in node_refs) == \
            sorted([*set(cold_tested), *set(cold_scored)])
        assert warm_reads == []
        assert (warm_tested, warm_scored) == (cold_tested, cold_scored)
        for first, second in zip(cold, warm):
            assert second.node_loads == 0
            assert second.node_hits == first.node_hits + first.node_loads > 0

    def test_internal_nodes_outlive_a_pass_wider_than_the_cap(
            self, golden, golden_disk, pinned):
        """Nine nodes through five slots: the six leaves take turns in
        the two slots the three internal nodes leave, so a second pass
        re-reads leaves and never an internal node (an LRU over all nine
        would have flushed the root)."""
        disk, path = golden_disk
        disk.checkpoint()
        internal = {ref for ref, node in disk.nodes() if not node.is_leaf}
        assert len(internal) == 3
        with DiskCTree.open_read_only(path, cache_pages=5) as handle:
            self._golden_pass(handle, golden, pinned)
            warm, warm_reads, _, _ = self._golden_pass(handle, golden,
                                                       pinned)
        assert not internal.intersection(warm_reads)
        assert sum(stats.node_loads for stats in warm) > 0


#: sha256 of ``DiskCTree.create(golden tree, page_size=512)`` — record
#: format 4.  Re-pin only with a format change or a change to what a
#: closure fold returns, and say so in the commit.
_PAGE_FILE_SHA256 = \
    "cce7118f77711bcf5fc2139f1d3de6fd95078be2d6e12135882a0bfc460efc5d"

#: sha256 of that index after the deletes and extends of
#: ``test_churned_page_file_bytes_pinned``.  Every Section 5 write path
#: folds closures on the way (insert, split, shrink, underflow merge and
#: redistribute), so a fold that maps one vertex elsewhere moves these
#: bytes.
_CHURNED_PAGE_FILE_SHA256 = \
    "da7c5628ca984cd47e16be307c9f9fec8c347be9a1bf8023e936701a24760555"

_HASH_PAGE_FILE = """
import hashlib, sys, tempfile
from pathlib import Path
from repro.graphs.io import load_graph_database
from repro.ctree.bulkload import bulk_load
from repro.ctree.diskindex import DiskCTree
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "golden.ctp"
    tree = bulk_load(load_graph_database(sys.argv[1]), min_fanout=3)
    DiskCTree.create(tree, path, page_size=512).close()
    print(hashlib.sha256(path.read_bytes()).hexdigest())
"""


class TestGoldenIndexIntegrity:
    @pytest.mark.parametrize("hash_seed", ["0", "4242"])
    def test_page_file_bytes_pinned(self, hash_seed):
        """The index file is a pure function of the graphs: the same
        bytes on every run and under every string-hash seed (label sets
        iterate in hash order; the encoder must not let that through)."""
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run(
            [sys.executable, "-c", _HASH_PAGE_FILE,
             str(_DATA / "golden_chem.jsonl")],
            capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == _PAGE_FILE_SHA256

    def test_churned_page_file_bytes_pinned(self, golden, tmp_path):
        """Six rounds of deleting four graphs and extending four: the tree
        stays valid after each, and the page file ends byte for byte as
        pinned — closure folds are exact, not merely equivalent."""
        from repro.obs.metrics import global_registry

        db, _ = golden
        registry = global_registry()
        names = [f"ctree.disk.{name}" for name in (
            "splits", "closure_shrinks", "underflow_merges",
            "underflow_redistributes")]
        before = {n: registry.counter(n).value for n in names}
        path = tmp_path / "churn.ctp"
        disk = DiskCTree.create(bulk_load(db, min_fanout=3), path,
                                page_size=512)
        live = list(range(len(db)))
        for r in range(6):
            victims = live[r::5][:4]
            disk.delete_many(victims)
            live = [g for g in live if g not in victims] + disk.extend(
                [db[(5 * r + i) % len(db)] for i in range(4)])
            assert disk.check() == []
        disk.close()
        assert all(registry.counter(n).value > before[n] for n in names)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == \
            _CHURNED_PAGE_FILE_SHA256

    def test_fsck_clean(self, golden_disk):
        disk, path = golden_disk
        disk.checkpoint()
        report = DiskCTree.fsck(path, deep=True)
        assert report.clean, report.errors
        assert report.graphs == 24

    def test_dataset_unchanged(self, golden):
        """The frozen database itself must never drift (24 graphs whose
        serialization hashes to a fixed value)."""
        digest = hashlib.sha256(
            (_DATA / "golden_chem.jsonl").read_bytes()
        ).hexdigest()
        db, _ = golden
        assert len(db) == 24
        assert digest == json.loads(
            (_DATA / "golden_answers.json").read_text()
        ).get("dataset_sha256", digest)
