"""Batched query engine: determinism, caching, and aggregation.

The engine's contract is that ``QueryEngine(index, workers=W)`` is
observably identical to the serial per-query loop for every ``W`` —
answers equal to the serial query's over the whole database (subgraph
ids sorted, K-NN in ``(-similarity, id)`` order) whatever the index
kind, stats logically identical
(:meth:`~repro.ctree.stats.QueryStats.deterministic_dict`), and global
metrics totals equal once worker deltas are merged home.  These tests
pin that contract over the frozen golden workload for every index kind
the engine accepts (:class:`TestEngineContract`), on the fork pools and
in-process, and hold the answers to both oracles of ``ORACLES``.
"""

import asyncio
import json
import multiprocessing
import re
import shutil
import sys
import threading
from pathlib import Path

import pytest

from repro.graphs.graph import Graph
from repro.graphs.io import load_graph_database
from repro.ctree.bulkload import bulk_load
from repro.ctree.diskindex import DiskCTree
from repro.ctree.parallel import QueryEngine
from repro.ctree.shards import ShardSet
from repro.ctree.similarity_query import knn_query, knn_share
from repro.ctree.stats import PAGE_IO, KnnStats, QueryStats
from repro.ctree.subgraph_query import subgraph_query, subgraph_share
from repro.ctree.tree import CTree
from repro.obs import trace
from repro.obs.metrics import MetricsRegistry, global_registry
from repro.server import BackpressureError, BatchCoalescer

from conftest import ORACLES, oracle_answers

_DATA = Path(__file__).parent / "data"
WORKER_COUNTS = (1, 2, 4)
#: per-query counters that must not depend on the execution schedule
_EXACT_COUNTERS = (
    "ctree.query.count", "ctree.query.histogram_tests",
    "ctree.query.pseudo_tests", "ctree.query.pseudo_survivors",
    "ctree.query.nodes_expanded", "ctree.query.candidates",
    "ctree.query.answers", "ctree.query.isomorphism_tests",
)


@pytest.fixture(scope="module")
def golden_db():
    return load_graph_database(_DATA / "golden_chem.jsonl")


@pytest.fixture(scope="module")
def golden_queries():
    expected = json.loads((_DATA / "golden_answers.json").read_text())
    return [Graph.from_dict(case["query"])
            for case in expected["subgraph"]]


@pytest.fixture(scope="module")
def golden_tree(golden_db):
    return bulk_load(golden_db, min_fanout=3)


@pytest.fixture(scope="module")
def golden_disk_path(golden_tree, tmp_path_factory):
    path = tmp_path_factory.mktemp("engine") / "golden.ctp"
    DiskCTree.create(golden_tree, path, page_size=512, cache_pages=32).close()
    return path


@pytest.fixture(scope="module")
def golden_answers(golden_tree, golden_queries):
    """Per oracle, the golden queries' answers, sorted."""
    return {oracle: [oracle_answers(oracle, golden_tree, q)
                     for q in golden_queries] for oracle in ORACLES}


# ----------------------------------------------------------------------
# Determinism: engine == serial loop at every worker count
# ----------------------------------------------------------------------
class TestDeterminism:
    @pytest.mark.parametrize("oracle", ORACLES)
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_memory_subgraph(self, golden_tree, golden_queries, workers,
                             oracle, golden_answers):
        serial = [subgraph_query(golden_tree, q) for q in golden_queries]
        with QueryEngine(golden_tree, workers=workers) as engine:
            batch = engine.query_many(golden_queries)
        assert [a for a, _ in batch] == golden_answers[oracle]
        assert ([s.deterministic_dict() for _, s in batch]
                == [s.deterministic_dict() for _, s in serial])

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_disk_subgraph(self, golden_disk_path, golden_queries, workers):
        with DiskCTree.open(golden_disk_path, cache_pages=32) as disk:
            serial = [disk.subgraph_query(q) for q in golden_queries]
            with QueryEngine(disk, workers=workers) as engine:
                batch = engine.query_many(golden_queries)
        assert [a for a, _ in batch] == [a for a, _ in serial]
        # deterministic_dict drops page_hits/page_misses: buffer-pool
        # temperature legitimately varies with the schedule.
        assert ([s.deterministic_dict() for _, s in batch]
                == [s.deterministic_dict() for _, s in serial])

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_memory_knn(self, golden_tree, golden_db, workers):
        queries = golden_db[:4]
        serial = [knn_query(golden_tree, q, 3) for q in queries]
        with QueryEngine(golden_tree, workers=workers) as engine:
            batch = engine.knn_many(queries, 3)
        assert [r for r, _ in batch] == [r for r, _ in serial]
        assert ([s.deterministic_dict() for _, s in batch]
                == [s.deterministic_dict() for _, s in serial])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_disk_knn(self, golden_disk_path, golden_db, workers):
        queries = golden_db[:3]
        with DiskCTree.open(golden_disk_path, cache_pages=32) as disk:
            serial = [disk.knn_query(q, 3) for q in queries]
            with QueryEngine(disk, workers=workers) as engine:
                batch = engine.knn_many(queries, 3)
        assert [r for r, _ in batch] == [r for r, _ in serial]

    def test_no_verify_and_level_max(self, golden_tree, golden_queries):
        with QueryEngine(golden_tree, workers=2) as engine:
            for level in (1, "max"):
                serial = [subgraph_query(golden_tree, q, level=level,
                                         verify=False)
                          for q in golden_queries]
                batch = engine.query_many(golden_queries, level=level,
                                          verify=False)
                assert [a for a, _ in batch] == [a for a, _ in serial]

    def test_empty_batch(self, golden_tree):
        with QueryEngine(golden_tree) as engine:
            assert engine.query_many([]) == []


# ----------------------------------------------------------------------
# One engine, every index kind: the contract
# ----------------------------------------------------------------------
#: index kind -> (backend, shard count; 0 = a plain single-tree index)
_KINDS = {
    "tree": ("memory", 0), "disk": ("disk", 0),
    "mem-s1": ("memory", 1), "mem-s2": ("memory", 2),
    "mem-s3": ("memory", 3), "disk-s2": ("disk", 2),
}


def _summed(per_part_stats, database_size):
    """What the engine must report for one query: the partitions' serial
    stats summed, over the whole database."""
    total = per_part_stats[0].copy()
    for stats in per_part_stats[1:]:
        total.merge(stats)
    total.database_size = database_size
    return total.deterministic_dict()


@pytest.mark.parametrize("oracle", ORACLES)
@pytest.mark.parametrize("mode", ["pool", "inline"])
@pytest.mark.parametrize("kind", list(_KINDS))
class TestEngineContract:
    """What holds for ``QueryEngine(index)`` whatever ``index`` is."""

    K = 4

    @pytest.fixture
    def case(self, kind, mode, oracle, golden_answers, golden_db,
             golden_tree, golden_disk_path, tmp_path):
        """``(make_engine, parts, sharded, want)``: an engine factory over
        the index of this kind, the partitions' own handles for the serial
        runs, whether it is a shard set, and the golden queries' answers
        by this case's oracle."""
        backend, shards = _KINDS[kind]
        if mode == "pool" and \
                "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("no fork start method on this platform")
        if not shards:
            index = golden_tree if backend == "memory" else \
                DiskCTree.open(golden_disk_path, cache_pages=32)
            parts = [index]
        elif backend == "memory":
            index = ShardSet.build_memory(golden_db, shards, min_fanout=3)
            parts = index.open_local()
        else:
            ShardSet.create(golden_db, tmp_path / "idx.shards",
                            shards=shards, min_fanout=3, page_size=512)
            index = ShardSet.open(tmp_path / "idx.shards")
            parts = index.open_local(cache_pages=32)

        def make_engine(**kwargs):
            engine = QueryEngine(index, workers=2, cache_pages=32, **kwargs)
            if mode == "inline":
                engine._fork_ok = False
            return engine

        yield make_engine, parts, bool(shards), golden_answers[oracle]
        for part in parts:
            if isinstance(part, DiskCTree):
                part.close()

    def test_answers_stats_and_registry_totals(self, case, golden_tree,
                                               golden_queries):
        make_engine, parts, _, want = case
        registry = global_registry()
        before = registry.snapshot()
        serial_sub = [[subgraph_query(p, q) for p in parts]
                      for q in golden_queries]
        serial_delta = registry.diff(before)
        serial_knn = [[knn_query(p, q, self.K) for p in parts]
                      for q in golden_queries]

        with make_engine(cache_size=0) as engine:
            before = registry.snapshot()
            sub = engine.query_many(golden_queries)
            engine_delta = registry.diff(before)
            knn = engine.knn_many(golden_queries, self.K)
            # Batches of one: split over the pool on a plain index.
            alone = [(engine.query_many([q])[0][0],
                      engine.knn_many([q], self.K)[0][0])
                     for q in golden_queries]

        # One form whatever the index and the path: the whole database's
        # serial answers.
        want_knn = [knn_query(golden_tree, q, self.K)[0]
                    for q in golden_queries]
        assert [a for a, _ in sub] == want
        assert [r for r, _ in knn] == want_knn
        assert alone == list(zip(want, want_knn))

        size = len(golden_tree)
        assert [s.deterministic_dict() for _, s in sub] == \
            [_summed([s for _, s in per_part], size)
             for per_part in serial_sub]
        assert [s.deterministic_dict() for _, s in knn] == \
            [_summed([s for _, s in per_part], size)
             for per_part in serial_knn]
        for name in _EXACT_COUNTERS:
            assert engine_delta.get(name) == serial_delta.get(name), name

    def test_one_mapping_call_per_graph_scored(self, case, golden_queries):
        """Every graph a K-NN task scores counts one NBM mapping call,
        wherever the task ran."""
        make_engine, _, _, _ = case
        registry = global_registry()
        with make_engine(cache_size=0) as engine:
            before = registry.snapshot()
            knn = engine.knn_many(golden_queries[:3], self.K)
            delta = registry.diff(before)
        scored = sum(stats.graphs_scored for _, stats in knn)
        assert scored > 0
        assert delta["matching.mapping.calls"]["value"] == scored
        assert delta["matching.mapping.calls.nbm"]["value"] == scored

    def test_dedup_and_cache_accounting(self, case, mode, golden_queries):
        make_engine, _, _, want = case
        q0, q1 = golden_queries[:2]
        engine = make_engine()
        try:
            first = engine.query_many([q0, q0.copy(), q1, q0])
            report = engine.last_batch
            assert (report.queries, report.dispatched,
                    report.cache_hits) == (4, 2, 0)
            pooled = mode == "pool"
            assert report.parallel == pooled
            assert report.workers == (engine.workers if pooled else 1)
            assert [a for a, _ in first] == \
                [want[0], want[0], want[1], want[0]]
            assert first[0][0] == first[1][0] == first[3][0]
            assert engine.cache_entries == 2
        finally:
            engine.close()

        # A fresh engine (no pools yet): prime it in-process, then an
        # all-hits batch must not fork anything.
        with make_engine() as engine:
            engine._fork_ok = False
            engine.query_many([q0, q1])
            engine._fork_ok = mode == "pool"
            again = engine.query_many([q0, q1, q0])
            report = engine.last_batch
            assert (report.dispatched, report.cache_hits) == (0, 3)
            assert report.cache_hit_rate == 1.0
            assert not report.parallel
            assert engine._pools is None
        assert [a for a, _ in again] == \
            [first[0][0], first[2][0], first[0][0]]

    def test_one_span_tree(self, case, mode, golden_queries):
        make_engine, parts, sharded, want = case
        queries = golden_queries[:3]
        sink = trace.ListSink()
        with make_engine() as engine, trace.tracing(sink):
            traced = engine.query_many(queries)
        assert [a for a, _ in traced] == want[:3]
        records = sink.records
        batches = [r for r in records if r["name"] == "engine.batch"]
        tasks = [r for r in records if r["name"] == "engine.task"]
        assert len(batches) == 1
        assert batches[0]["attrs"]["dispatched"] == len(queries)
        assert len(tasks) == len(queries) * len(parts)
        for task in tasks:
            parent = trace.ancestry(task, records)[0]
            assert parent["span_id"] == batches[0]["span_id"]
        if sharded:
            assert sorted(t["attrs"]["shard"] for t in tasks) == \
                sorted(list(range(len(parts))) * len(queries))
        else:
            assert all("shard" not in t["attrs"] for t in tasks)
        # The tree work hangs under the tasks, wherever they ran.
        task_ids = {t["span_id"] for t in tasks}
        roots = [r for r in records if r["name"] == "ctree.subgraph_query"]
        assert len(roots) == len(tasks)
        assert all(r["parent_id"] in task_ids for r in roots)


def test_disk_shard_handles_get_engine_cache_pages(golden_db, golden_queries,
                                                   tmp_path):
    """The in-process path opens disk shards with the engine's
    ``cache_pages``, not the buffer pool's default."""
    ShardSet.create(golden_db, tmp_path / "idx.shards", shards=2,
                    min_fanout=3, page_size=512)
    with QueryEngine(ShardSet.open(tmp_path / "idx.shards"),
                     cache_pages=7) as engine:
        engine._fork_ok = False
        engine.query_many(golden_queries[:1])
        assert [h.pool.capacity for h in engine._local] == [7, 7]


def test_workers_is_the_real_process_count(golden_db, golden_tree):
    """Pool size is W over one partition and S over S > 1 shards."""
    sset = ShardSet.build_memory(golden_db, 3, "hash", min_fanout=3)
    assert QueryEngine(golden_tree, workers=4).workers == 4
    assert QueryEngine(sset, workers=4).workers == 3
    no_fork = QueryEngine(golden_tree, workers=4)
    no_fork._fork_ok = False
    assert no_fork.workers == 1


# ----------------------------------------------------------------------
# A lone K-NN task split over the pool: shares scored in parallel, one
# Alg. 4 replay over their similarities and bounds
# ----------------------------------------------------------------------
#: the K-NN registry counters that depend on query logic alone
_KNN_EXACT = tuple(f"ctree.knn.{name}" for name in (
    "count", "nodes_expanded", "children_scored", "graphs_scored",
    "pruned_by_bound", "results"))


def _counter(delta: dict, name: str):
    return delta.get(name, {}).get("value", 0)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="no fork start method on this platform")
class TestSplitKnn:
    """One K-NN query on one tree runs on every process of the pool and
    still returns the serial answer, tie order included, with the serial
    stats and ``ctree.knn.*`` registry deltas."""

    @pytest.fixture(params=["memory", "disk"])
    def index(self, request, golden_tree, golden_disk_path):
        if request.param == "memory":
            yield golden_tree
        else:
            with DiskCTree.open(golden_disk_path, cache_pages=32) as disk:
                yield disk

    @pytest.mark.parametrize("workers", [2, 3])
    def test_every_golden_graph_alone_equals_serial(self, index, workers,
                                                    golden_db):
        registry = global_registry()
        with QueryEngine(index, workers=workers, cache_size=0) as engine:
            for k in (1, 3, 5, 10):
                for query in golden_db:
                    before = registry.snapshot()
                    want, want_stats = knn_query(index, query, k)
                    serial = registry.diff(before)
                    before = registry.snapshot()
                    (got, stats), = engine.knn_many([query], k)
                    delta = registry.diff(before)
                    assert engine.last_batch.parallel
                    assert engine.last_batch.workers == workers
                    assert got == want
                    assert stats.deterministic_dict() == \
                        want_stats.deterministic_dict()
                    for name in _KNN_EXACT:
                        assert _counter(delta, name) == \
                            _counter(serial, name), name
                    assert _counter(delta, "engine.knn_replay_misses") == 0
                    assert _counter(delta, "engine.knn_split_pairs") >= \
                        stats.graphs_scored

    def test_one_mapping_call_per_graph_scored(self, index, golden_db):
        """Every graph a share or the replay scores counts one NBM
        mapping call: the shares' pairs plus the replay's misses."""
        registry = global_registry()
        with QueryEngine(index, workers=2, cache_size=0) as engine:
            for query in golden_db[:6]:
                before = registry.snapshot()
                (_, stats), = engine.knn_many([query], 3)
                delta = registry.diff(before)
                assert engine.last_batch.parallel
                calls = _counter(delta, "matching.mapping.calls")
                assert calls == _counter(delta, "engine.knn_split_pairs") \
                    + _counter(delta, "engine.knn_replay_misses")
                assert calls == _counter(delta, "matching.mapping.calls.nbm")
                assert calls >= stats.graphs_scored > 0

    def test_replay_from_partial_memos(self, index, golden_db):
        """A replay computes what its memos lack: one share's memos
        alone still give the serial answer and stats."""
        for query in golden_db[::5]:
            want, want_stats = knn_query(index, query, 5)
            sims, bounds = knn_share(index, query, 5, 0, 2)
            for memo in ({"sims": dict(sims)}, {"bounds": dict(bounds)},
                         {"sims": dict(sims), "bounds": dict(bounds)}):
                got, stats = knn_query(index, query, 5, **memo)
                assert got == want
                assert stats.deterministic_dict() == \
                    want_stats.deterministic_dict()
            # the last replay scored and bounded what the share had not
            assert len(memo["sims"]) > len(sims)
            assert len(memo["bounds"]) > len(bounds)

    def test_shares_partition_the_tree(self, index, golden_db):
        """Every graph the serial run scores is scored by exactly one
        share."""
        for shares in (2, 3):
            maps = [knn_share(index, golden_db[0], 24, s, shares)[0]
                    for s in range(shares)]
            ids = [gid for sims in maps for gid in sims]
            assert sorted(ids) == sorted(set(ids))
            assert set(ids) == set(range(len(golden_db)))

    def test_stays_inline(self, golden_tree, golden_db):
        """An empty index, ``k = 0``, one worker, and a tree with no
        level twice as wide as the pool run today's in-process path."""
        query = golden_db[0]
        cases = [(CTree(min_fanout=2), 2, 3), (golden_tree, 2, 0),
                 (golden_tree, 1, 3), (golden_tree, 64, 3)]
        for index, workers, k in cases:
            with QueryEngine(index, workers=workers, cache_size=0) as engine:
                (got, stats), = engine.knn_many([query], k)
                assert not engine.last_batch.parallel
                assert engine._pools is None
            want, want_stats = knn_query(index, query, k)
            assert got == want
            assert stats.deterministic_dict() == \
                want_stats.deterministic_dict()

    def test_span_tree(self, index, golden_db):
        """Two shares on two processes, then the replay, all under the
        batch span."""
        sink = trace.ListSink()
        with QueryEngine(index, workers=2, cache_size=0) as engine, \
                trace.tracing(sink):
            engine.knn_many(golden_db[:1], 5)
        records = sink.records
        batch, = [r for r in records if r["name"] == "engine.batch"]
        tasks = [r for r in records if r["name"] == "engine.task"]
        shares = [t for t in tasks if t["attrs"]["kind"] == "knn_share"]
        replay, = [t for t in tasks if t["attrs"]["kind"] == "knn"]
        assert sorted(t["attrs"]["share"] for t in shares) == [0, 1]
        assert len({t["attrs"]["pid"] for t in shares}) == 2
        for task in tasks:
            assert task["parent_id"] == batch["span_id"]
        root, = [r for r in records if r["name"] == "ctree.knn_query"]
        assert root["parent_id"] == replay["span_id"]


# ----------------------------------------------------------------------
# A lone subgraph task split over the pool: Alg. 3 on disjoint tree
# shares, answers merged sorted, stats summed
# ----------------------------------------------------------------------
def _query_delta(delta: dict) -> dict:
    """The ``ctree.query.*`` part of a registry delta that depends on
    query logic alone (no timings, no page I/O)."""
    return {name: snap for name, snap in delta.items()
            if name.startswith("ctree.query.") and "seconds" not in name
            and name.rsplit(".", 1)[1] not in PAGE_IO}


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="no fork start method on this platform")
class TestSplitSubgraph:
    """One subgraph query on one tree runs on every process of the pool
    and still returns the serial answer in serial order, with the serial
    stats and ``ctree.query.*`` registry deltas."""

    @pytest.fixture(params=["memory", "disk"])
    def index(self, request, golden_tree, golden_disk_path):
        if request.param == "memory":
            yield golden_tree
        else:
            with DiskCTree.open(golden_disk_path, cache_pages=32) as disk:
                yield disk

    @pytest.mark.parametrize("workers", [2, 3])
    def test_every_golden_query_alone_equals_serial(self, index, workers,
                                                    golden_queries):
        registry = global_registry()
        with QueryEngine(index, workers=workers, cache_size=0) as engine:
            for level in (1, "max"):
                for verify in (True, False):
                    for query in golden_queries:
                        before = registry.snapshot()
                        want, want_stats = subgraph_query(
                            index, query, level=level, verify=verify)
                        serial = _query_delta(registry.diff(before))
                        before = registry.snapshot()
                        (got, stats), = engine.query_many([query], level,
                                                          verify)
                        delta = _query_delta(registry.diff(before))
                        assert engine.last_batch.parallel
                        assert engine.last_batch.workers == workers
                        assert got == want
                        assert stats.deterministic_dict() == \
                            want_stats.deterministic_dict()
                        assert delta == serial
                        assert delta["ctree.query.count"]["value"] == 1
                        assert delta["ctree.query.per_query.candidates"][
                            "count"] == 1

    def test_shares_partition_the_work(self, index, golden_queries,
                                       monkeypatch):
        """Every graph the serial run pseudo-tests is tested by exactly
        one share, and the shares' records sum to the serial one."""
        store = index.store
        loaded = []
        load_context = store.load_context

        def recording(ref):
            loaded.append(ref.graph_id)
            return load_context(ref)

        monkeypatch.setattr(store, "load_context", recording)
        for query in golden_queries:
            _, want = subgraph_share(index, query)
            serial = sorted(loaded)
            for shares in (2, 3):
                loaded.clear()
                parts = [subgraph_share(index, query, 1, True, s, shares)[1]
                         for s in range(shares)]
                assert sorted(loaded) == serial
                merged = parts[0].copy()
                for part in parts[1:]:
                    merged.merge(part)
                assert merged.deterministic_dict() == \
                    want.deterministic_dict()
            loaded.clear()

    def test_stays_inline(self, golden_tree, golden_queries):
        """An empty index, one worker, and a tree with no level twice as
        wide as the pool run the in-process path and fork nothing."""
        query = golden_queries[0]
        cases = [(CTree(min_fanout=2), 2), (golden_tree, 1),
                 (golden_tree, 64)]
        for index, workers in cases:
            with QueryEngine(index, workers=workers, cache_size=0) as engine:
                (got, stats), = engine.query_many([query])
                assert not engine.last_batch.parallel
                assert engine._pools is None
            want, want_stats = subgraph_query(index, query)
            assert got == want
            assert stats.deterministic_dict() == \
                want_stats.deterministic_dict()

    def test_span_tree(self, index, golden_queries):
        """One ``engine.task`` per share, on two processes, under the
        batch span; each holds its share's Alg. 3 root span."""
        sink = trace.ListSink()
        with QueryEngine(index, workers=2, cache_size=0) as engine, \
                trace.tracing(sink):
            engine.query_many(golden_queries[:1])
        records = sink.records
        batch, = [r for r in records if r["name"] == "engine.batch"]
        tasks = [r for r in records if r["name"] == "engine.task"]
        assert [t["attrs"]["kind"] for t in tasks] == ["subgraph_share"] * 2
        assert sorted(t["attrs"]["share"] for t in tasks) == [0, 1]
        assert len({t["attrs"]["pid"] for t in tasks}) == 2
        for task in tasks:
            assert task["parent_id"] == batch["span_id"]
        roots = [r for r in records if r["name"] == "ctree.subgraph_query"]
        assert sorted(r["parent_id"] for r in roots) == \
            sorted(t["span_id"] for t in tasks)

    def test_cache_hit_returns_the_split_answer(self, index, golden_queries):
        with QueryEngine(index, workers=2) as engine:
            for query in golden_queries:
                (split, split_stats), = engine.query_many([query])
                assert engine.last_batch.parallel
                (hit, hit_stats), = engine.query_many([query])
                assert engine.last_batch.cache_hits == 1
                assert not engine.last_batch.parallel
                assert hit == split == subgraph_query(index, query)[0]
                assert hit_stats.deterministic_dict() == \
                    split_stats.deterministic_dict()


# ----------------------------------------------------------------------
# docs/OBSERVABILITY.md's query, disk-index, matching, engine and shard
# tables are the metric contract
# ----------------------------------------------------------------------
_ADMISSION_FAMILY = ("server.coalesce.", "server.backpressure.",
                     "server.inflight")


def _documented_names(doc: str, start: str, end: str) -> set:
    """Every back-quoted name in the first column of the metric tables
    between two headings of docs/OBSERVABILITY.md."""
    return {
        name
        for line in doc[doc.index(start):doc.index(end)].splitlines()
        if line.startswith("| `")
        for name in re.findall(r"`([^`]+)`", line.split("|")[1])
    }


def test_documented_metric_names(golden_db, golden_tree, golden_queries,
                                 golden_disk_path, tmp_path):
    doc = (Path(__file__).parent.parent / "docs"
           / "OBSERVABILITY.md").read_text()
    documented = _documented_names(doc, "### Engine metrics",
                                   "### Server metrics")
    admission = {
        name for name in _documented_names(doc, "### Server metrics",
                                           "## Tracing & EXPLAIN")
        if name.startswith(_ADMISSION_FAMILY)
    }
    per_query = _documented_names(doc, "### Query metrics",
                                  "### Disk-index maintenance metrics")
    disk_index = _documented_names(doc, "### Disk-index maintenance metrics",
                                   "### Matching metrics")
    matching = _documented_names(doc, "### Matching metrics",
                                 "### Engine metrics")
    # The query rows are the records' declarations, nothing retyped.
    assert per_query == {
        f"{cls._PREFIX}.{name}"
        for cls in (QueryStats, KnnStats)
        for name in (*cls._FIELDS, *PAGE_IO, "count",
                     *(f"per_query.{h}" for h in cls._HISTOGRAMS))
        if name != "database_size"
    }

    # One pool batch on a plain index (a disk one, refreshed, so the
    # worker-side names exist too) and one on a 2-shard set.
    with DiskCTree.open(golden_disk_path, cache_pages=32) as disk, \
            QueryEngine(disk, workers=2, cache_size=0) as engine:
        engine.query_many(golden_queries[:2])
        engine.refresh()
        engine.query_many(golden_queries[:2])
        engine.knn_many(golden_queries[:1], 3)
    with QueryEngine(ShardSet.build_memory(golden_db, 2, "hash",
                                           min_fanout=3)) as engine:
        engine.knn_many(golden_queries[:2], 3)

    # Churn on a copy of the disk index: splits, then underflow merges,
    # redistributions and closure shrinks, then a repack.
    churned = shutil.copy(golden_disk_path, tmp_path / "churned.ctp")
    with DiskCTree.open(churned, cache_pages=32) as disk:
        disk.extend(golden_db[:12])
        disk.delete_many(range(30), auto_compact=False)
        disk.compact(force=True)

    # The admission layer: one admitted miss, one refusal over the cap,
    # one pre-admission hit.
    async def serve(engine):
        coalescer = BatchCoalescer(engine, client_cap=1)
        await coalescer.start()
        try:
            args = ("subgraph", (1, True), golden_queries[0], "client")
            miss = asyncio.ensure_future(coalescer.submit(*args))
            await asyncio.sleep(0)      # admitted, not yet answered
            with pytest.raises(BackpressureError):
                await coalescer.submit(*args)
            answers, _ = await miss
            hit, _ = await coalescer.submit(*args)
            assert hit == answers
        finally:
            await coalescer.stop()

    with QueryEngine(golden_tree) as engine:
        asyncio.run(serve(engine))

    names = global_registry().names()
    registered = {
        re.sub(r"^shard\.s\d+\.", "shard.s{s}.", name)
        for name in names if name.startswith(("engine.", "shard."))
    }
    assert registered == documented
    assert {name for name in names
            if name.startswith(("ctree.query.", "ctree.knn."))} == per_query
    assert {name for name in names
            if name.startswith("ctree.disk.")} == disk_index
    assert {name for name in names
            if name.startswith(_ADMISSION_FAMILY)} == admission
    assert {name for name in names
            if name.startswith(("matching.pseudo_iso.",
                                "matching.ullmann."))} == matching


# ----------------------------------------------------------------------
# Answer cache and batch deduplication
# ----------------------------------------------------------------------
class TestCache:
    def test_repeat_batch_served_from_cache(self, golden_tree,
                                            golden_queries):
        with QueryEngine(golden_tree) as engine:
            first = engine.query_many(golden_queries)
            assert engine.last_batch.cache_hits == 0
            second = engine.query_many(golden_queries)
            report = engine.last_batch
        assert report.cache_hit_rate == 1.0
        assert report.dispatched == 0
        assert [a for a, _ in second] == [a for a, _ in first]

    def test_within_batch_dedup(self, golden_tree, golden_queries):
        q = golden_queries[0]
        batch = [q, q.copy(), q, golden_queries[1]]
        with QueryEngine(golden_tree) as engine:
            results = engine.query_many(batch)
            report = engine.last_batch
        assert report.dispatched == 2
        assert results[0][0] == results[1][0] == results[2][0]
        serial = subgraph_query(golden_tree, q)
        assert results[0][0] == serial[0]
        assert results[0][1].deterministic_dict() \
            == serial[1].deterministic_dict()

    def test_cache_size_zero_disables_cache_and_dedup(self, golden_tree,
                                                      golden_queries):
        q = golden_queries[0]
        with QueryEngine(golden_tree, cache_size=0) as engine:
            engine.query_many([q, q, q])
            assert engine.last_batch.dispatched == 3
            assert engine.cache_entries == 0
            engine.query_many([q])
            assert engine.last_batch.cache_hits == 0

    def test_lru_eviction(self, golden_tree, golden_queries):
        with QueryEngine(golden_tree, cache_size=2) as engine:
            for q in golden_queries[:3]:
                engine.query_many([q])
            assert engine.cache_entries <= 2
            # The oldest entry was evicted; the newest is still cached.
            engine.query_many([golden_queries[2]])
            assert engine.last_batch.cache_hits == 1
            engine.query_many([golden_queries[0]])
            assert engine.last_batch.cache_hits == 0

    def test_cached_results_are_independent_copies(self, golden_tree,
                                                   golden_queries):
        q = golden_queries[0]
        with QueryEngine(golden_tree) as engine:
            (answers, stats), = engine.query_many([q])
            answers.append(10 ** 9)  # vandalize the returned list
            stats.answers = 10 ** 9
            (again, stats2), = engine.query_many([q])
        assert 10 ** 9 not in again
        assert stats2.answers != 10 ** 9

    def test_refresh_drops_cache(self, golden_tree, golden_queries):
        with QueryEngine(golden_tree) as engine:
            engine.query_many([golden_queries[0]])
            assert engine.cache_entries == 1
            engine.refresh()
            assert engine.cache_entries == 0
            engine.query_many([golden_queries[0]])
            assert engine.last_batch.cache_hits == 0

    def test_params_partition_the_cache(self, golden_tree, golden_queries):
        q = golden_queries[0]
        with QueryEngine(golden_tree) as engine:
            engine.query_many([q], level=1)
            engine.query_many([q], level="max")
            assert engine.last_batch.cache_hits == 0
            engine.query_many([q], level="max")
            assert engine.last_batch.cache_hits == 1


# ----------------------------------------------------------------------
# probe(): the one-query cache lookup the HTTP server runs before
# admission, from its own thread
# ----------------------------------------------------------------------
class TestProbe:
    def _engines(self, golden_db, golden_tree, golden_disk_path):
        yield "memory", lambda: QueryEngine(golden_tree)
        yield "disk", lambda: QueryEngine(
            DiskCTree.open(golden_disk_path, cache_pages=32))
        yield "sharded", lambda: QueryEngine(
            ShardSet.build_memory(golden_db, 2, "hash", min_fanout=3))

    def test_hit_is_the_batch_result_and_is_counted(
            self, golden_db, golden_tree, golden_disk_path, golden_queries):
        registry = global_registry()
        q = golden_queries[0]
        for label, make in self._engines(golden_db, golden_tree,
                                         golden_disk_path):
            with make() as engine:
                before = registry.snapshot()
                assert engine.probe("subgraph", (1, True), q) is None
                assert "engine.queries" not in {
                    n for n, snap in registry.diff(before).items()
                    if snap.get("value")}, label
                (answers, stats), = engine.query_many([q])
                (neighbors, knn_stats), = engine.knn_many([q], 3)
                before = registry.snapshot()
                got = engine.probe("subgraph", (1, True), q.copy())
                got_knn = engine.probe("knn", (3,), q)
                delta = registry.diff(before)
                assert engine.probe("subgraph", ("max", True), q) is None
                assert engine.probe("knn", (4,), q) is None
                if label == "disk":
                    engine._index.close()
            assert got[0] == answers, label
            assert got[1].to_dict() == stats.to_dict(), label
            assert got_knn[0] == neighbors, label
            assert got_knn[1].to_dict() == knn_stats.to_dict(), label
            assert delta["engine.queries"]["value"] == 2
            assert delta["engine.cache_hits"]["value"] == 2
            assert delta["engine.cache_misses"]["value"] == 0
            assert delta["engine.batches"]["value"] == 0

    def test_hits_are_independent_copies(self, golden_tree,
                                         golden_queries):
        q = golden_queries[0]
        with QueryEngine(golden_tree) as engine:
            (answers, _), = engine.query_many([q])
            got, stats = engine.probe("subgraph", (1, True), q)
            got.append(10 ** 9)
            stats.answers = 10 ** 9
            again, stats2 = engine.probe("subgraph", (1, True), q)
        assert again == answers
        assert stats2.answers == len(answers)

    def test_cache_off_never_hits(self, golden_tree, golden_queries):
        q = golden_queries[0]
        with QueryEngine(golden_tree, cache_size=0) as engine:
            engine.query_many([q])
            assert engine.probe("subgraph", (1, True), q) is None

    def test_probe_races_batches_and_refresh(self, golden_tree,
                                             golden_queries):
        """One thread runs batches and refreshes over a capacity-2
        cache (every put evicts); another probes throughout.  Without
        the engine's cache lock a probe can die in ``move_to_end`` on a
        bucket evicted under it (the short switch interval makes the
        interleaving likely, not the test timing-dependent)."""
        serial = [subgraph_query(golden_tree, q)[0]
                  for q in golden_queries]
        failures: list = []
        probes = [0, 0]
        stop = threading.Event()

        def prober(engine):
            try:
                while not stop.is_set():
                    for q, want in zip(golden_queries, serial):
                        got = engine.probe("subgraph", (1, True), q)
                        probes[got is not None] += 1
                        if got is not None and got[0] != want:
                            failures.append((q, got[0], want))
            except Exception as exc:  # noqa: BLE001 - reported below
                failures.append(exc)

        interval = sys.getswitchinterval()
        with QueryEngine(golden_tree, cache_size=2) as engine:
            thread = threading.Thread(target=prober, args=(engine,))
            sys.setswitchinterval(1e-5)
            thread.start()
            try:
                for round_ in range(60):
                    for (answers, _), want in zip(
                            engine.query_many(golden_queries), serial):
                        assert answers == want
                    if round_ % 3 == 0:
                        engine.refresh()
            finally:
                stop.set()
                thread.join(30)
                sys.setswitchinterval(interval)
        assert not failures, failures[:3]
        assert probes[0] and probes[1]      # it saw misses and hits


# ----------------------------------------------------------------------
# Metrics aggregation across workers (registry merge)
# ----------------------------------------------------------------------
class TestRegistryMerge:
    def test_merge_counters_and_gauges(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(3)
        b.counter("c").inc(4)
        b.gauge("g").set(7)
        a.merge(b.snapshot())
        assert a.counter("c").value == 7
        assert a.gauge("g").value == 7

    def test_merge_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for v in (0.5, 2.0):
            a.histogram("h").observe(v)
        for v in (1.0, 8.0):
            b.histogram("h").observe(v)
        a.merge(b.snapshot())
        snap = a.histogram("h").snapshot()
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(11.5)
        assert snap["min"] == 0.5
        assert snap["max"] == 8.0

    def test_parallel_totals_match_serial(self, golden_tree,
                                          golden_queries):
        """The worker-delta merge: process-wide exact counters after a
        parallel batch equal those after the serial loop."""
        registry = global_registry()

        before = registry.snapshot()
        for q in golden_queries:
            subgraph_query(golden_tree, q)
        serial_delta = registry.diff(before)

        before = registry.snapshot()
        with QueryEngine(golden_tree, workers=2, cache_size=0) as engine:
            engine.query_many(golden_queries)
        parallel_delta = registry.diff(before)

        for name in _EXACT_COUNTERS:
            assert parallel_delta.get(name) == serial_delta.get(name), name

    def test_worker_deltas_leave_parent_gauges_alone(self, golden_tree,
                                                      golden_queries):
        """Workers fork with a copy of every gauge; that stale copy must
        not ride home and overwrite the parent's live value."""
        gauge = global_registry().gauge("server.inflight")
        was = gauge.value
        try:
            with QueryEngine(golden_tree, workers=2,
                             cache_size=0).start() as engine:
                if engine.workers == 1:
                    pytest.skip("fork start method unavailable")
                gauge.set(was + 5)      # after the fork
                engine.query_many(golden_queries)
                assert engine.last_batch.parallel
            assert gauge.value == was + 5
        finally:
            gauge.set(was)

    def test_engine_metrics_emitted(self, golden_tree, golden_queries):
        registry = global_registry()
        before = registry.snapshot()
        with QueryEngine(golden_tree, workers=2) as engine:
            engine.query_many(golden_queries)
        delta = registry.diff(before)
        assert delta["engine.batches"]["value"] == 1
        assert delta["engine.queries"]["value"] == len(golden_queries)
        assert "engine.per_batch.wall_seconds" in delta


# ----------------------------------------------------------------------
# DiskCTree.extend: incremental inserts, one group commit
# ----------------------------------------------------------------------
class TestExtendIncremental:
    def _counter(self, name: str) -> float:
        return global_registry().counter(name).value

    def test_extend_never_rebuilds(self, golden_db, tmp_path):
        """The append path is incremental: each graph counts one
        incremental insert, and each batch counts one group commit."""
        tree = bulk_load(golden_db[:6], min_fanout=3)
        with DiskCTree.create(tree, tmp_path / "x.ctp",
                              page_size=512) as disk:
            gen0 = disk.generation
            inserts = self._counter("ctree.disk.incremental_inserts")
            commits = self._counter("ctree.disk.group_commits")
            disk.extend(golden_db[6:9])
            assert self._counter("ctree.disk.incremental_inserts") \
                - inserts == 3
            assert self._counter("ctree.disk.group_commits") - commits == 1
            assert disk.generation == gen0 + 1
            assert len(disk) == 9

            commits = self._counter("ctree.disk.group_commits")
            for g in golden_db[9:12]:
                disk.extend([g])
            assert self._counter("ctree.disk.group_commits") - commits == 3
            assert len(disk) == 12
            stored = dict(disk.iter_graphs())
            assert sorted(stored) == list(range(12))

    def test_extend_matches_serial_answers(self, golden_db, golden_queries,
                                           tmp_path):
        """An incrementally extended index answers exactly like a
        bulk-loaded linear scan over the same graphs."""
        tree = bulk_load(golden_db[:6], min_fanout=3)
        with DiskCTree.create(tree, tmp_path / "m.ctp",
                              page_size=512) as disk:
            disk.extend(golden_db[6:])
            stored = dict(disk.iter_graphs())
            from repro.matching.pseudo_iso import \
                pseudo_compatibility_domains
            from repro.matching.ullmann import subgraph_isomorphic
            for q in golden_queries:
                answers, _ = disk.subgraph_query(q)
                expected = sorted(
                    gid for gid, g in stored.items()
                    if subgraph_isomorphic(
                        q, g, pseudo_compatibility_domains(q, g, 1))
                )
                assert sorted(answers) == expected

    def test_forced_compaction_repacks(self, golden_db, tmp_path):
        """``compact(force=True)`` re-bulk-loads every stored graph under
        one commit — the repack that the removed ``rebuild=True`` append
        mode used to offer."""
        tree = bulk_load(golden_db[:6], min_fanout=3)
        with DiskCTree.create(tree, tmp_path / "r.ctp",
                              page_size=512) as disk:
            disk.extend(golden_db[6:9])
            compactions = self._counter("ctree.disk.compactions")
            generation = disk.generation
            assert disk.compact(force=True) == "forced"
            assert self._counter("ctree.disk.compactions") \
                - compactions == 1
            assert disk.generation == generation + 1
            assert len(disk) == 9
            assert sorted(dict(disk.iter_graphs())) == list(range(9))
        report = DiskCTree.fsck(tmp_path / "r.ctp", deep=True)
        assert report.clean, report.errors

    def test_extend_passes_deep_fsck(self, golden_db, tmp_path):
        tree = bulk_load(golden_db[:6], min_fanout=3)
        path = tmp_path / "f.ctp"
        with DiskCTree.create(tree, path, page_size=512) as disk:
            disk.extend(golden_db[6:])
        report = DiskCTree.fsck(path, deep=True)
        assert report.clean, report.errors

    def test_extend_empty_batch_is_free(self, golden_db, tmp_path):
        tree = bulk_load(golden_db[:6], min_fanout=3)
        with DiskCTree.create(tree, tmp_path / "y.ctp",
                              page_size=512) as disk:
            commits = self._counter("ctree.disk.group_commits")
            assert disk.extend([]) == []
            assert self._counter("ctree.disk.group_commits") == commits


# ----------------------------------------------------------------------
# Engine refresh over a mutated disk index (epoch-based, no respawn)
# ----------------------------------------------------------------------
class TestDiskRefresh:
    def test_refresh_keeps_pool_and_sees_appends(self, golden_db,
                                                 golden_queries, tmp_path):
        """After an incremental append + refresh, the respawned workers
        answer against the new generation."""
        tree = bulk_load(golden_db[:8], min_fanout=3)
        path = tmp_path / "live.ctp"
        extra = golden_db[8:]
        with DiskCTree.create(tree, path, page_size=512,
                              cache_pages=32) as disk:
            with QueryEngine(disk, workers=2, cache_size=0).start() \
                    as engine:
                if engine._pools is None:
                    pytest.skip("no fork start method on this platform")
                engine.query_many(golden_queries)
                pool = engine._pools
                disk.extend(extra)
                engine.refresh()
                assert engine._pools is not pool, "refresh must respawn"
                batch = engine.query_many(golden_queries + extra)
                with DiskCTree.open(path, wal=False,
                                    auto_recover=False) as fresh:
                    serial = [fresh.subgraph_query(q)[0]
                              for q in golden_queries + extra]
                assert [a for a, _ in batch] == serial
                # every appended graph matches itself in the new state
                assert all(a for a, _ in batch[len(golden_queries):])

    def test_refresh_sees_deletes_and_compaction(self, golden_db,
                                                 golden_queries, tmp_path):
        """After incremental deletes (and the compaction they may
        trigger) + refresh, the respawned workers answer against the
        surviving set — deleted ids gone."""
        tree = bulk_load(golden_db, min_fanout=3)
        path = tmp_path / "shrink.ctp"
        victims = [0, 2, 4]
        with DiskCTree.create(tree, path, page_size=512,
                              cache_pages=32) as disk:
            with QueryEngine(disk, workers=2, cache_size=0).start() \
                    as engine:
                if engine._pools is None:
                    pytest.skip("no fork start method on this platform")
                engine.query_many(golden_queries)
                pool = engine._pools
                disk.delete_many(victims)
                disk.compact(force=True)
                engine.refresh()
                assert engine._pools is not pool, "refresh must respawn"
                batch = engine.query_many(golden_queries)
                with DiskCTree.open(path, wal=False,
                                    auto_recover=False) as fresh:
                    serial = [fresh.subgraph_query(q)[0]
                              for q in golden_queries]
                assert [a for a, _ in batch] == serial
                assert not any(set(victims) & set(a) for a, _ in batch), \
                    "deleted ids leaked through the refreshed pool"


# ----------------------------------------------------------------------
# Graph.signature memoization
# ----------------------------------------------------------------------
class TestSignatureCache:
    def _fresh_signature(self, g: Graph) -> tuple:
        return Graph.from_dict(g.to_dict()).signature()

    def test_signature_is_cached(self, golden_db):
        g = golden_db[0].copy()
        assert g.signature() is g.signature()

    def test_mutations_invalidate(self):
        g = Graph(["C", "C", "O"])
        g.add_edge(0, 1)
        sig = g.signature()

        g.add_vertex("N")
        assert g.signature() != sig
        assert g.signature() == self._fresh_signature(g)

        sig = g.signature()
        g.add_edge(1, 2)
        assert g.signature() != sig
        assert g.signature() == self._fresh_signature(g)

    def test_copy_carries_cached_signature(self, golden_db):
        g = golden_db[1].copy()
        sig = g.signature()
        c = g.copy()
        assert c.signature() == sig
        c.add_vertex("Zz")
        assert c.signature() != sig
        assert g.signature() == sig

    def test_pickle_roundtrip_recomputes(self, golden_db):
        import pickle

        g = golden_db[2].copy()
        sig = g.signature()
        assert pickle.loads(pickle.dumps(g)).signature() == sig


# ----------------------------------------------------------------------
# Stats copy / deterministic_dict helpers
# ----------------------------------------------------------------------
class TestStatsHelpers:
    def test_copy_is_independent(self):
        s = QueryStats(database_size=5, candidates=3, answers=2)
        s.record_level(0, 4, 2)
        c = s.copy()
        assert c.to_dict() == s.to_dict()
        c.answers += 1
        c.record_level(1, 1, 1)
        assert s.answers == 2
        assert len(s.x_by_level) == 1

    def test_deterministic_dict_drops_timings(self):
        s = QueryStats(candidates=3, search_seconds=1.25)
        d = s.deterministic_dict()
        assert "search_seconds" not in d
        assert "verify_seconds" not in d
        assert "total_seconds" not in d
        assert d["candidates"] == 3
