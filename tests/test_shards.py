"""Shard sets: placement, persistence, and answers through the engine.

The contract: a :class:`~repro.ctree.parallel.QueryEngine` over any
:class:`~repro.ctree.shards.ShardSet` answers **bit-identically** to
the single-tree reference at every shard count S, both backends —
subgraph answers equal the serial loop's or the reference matchers'
scan (and the frozen golden oracle), K-NN equals the single-tree
``knn_query``, ties included.  Also covered here: the placement
function's partition invariants, the manifest round-trip,
``fsck_shards``, and the tree-level K-NN tie order.  The engine
contract common to every index kind is in ``tests/test_engine.py``.
"""

import json
import math
from pathlib import Path

import pytest

from repro.exceptions import ConfigError
from repro.graphs.graph import Graph
from repro.graphs.io import load_graph_database
from repro.ctree.bulkload import bulk_load
from repro.ctree.diskindex import DiskCTree
from repro.ctree.parallel import QueryEngine
from repro.ctree.shards import (
    Shard,
    ShardSet,
    fsck_shards,
    place_graphs,
)
from repro.ctree.similarity_query import knn_query

from conftest import ORACLES, oracle_answers

_DATA = Path(__file__).parent / "data"
SHARD_COUNTS = (1, 2, 4)
#: the ids these cases had beside the "-closure" ones, kept stable
SHARD_IDS = [f"{s}-hash" for s in SHARD_COUNTS]


@pytest.fixture(scope="module")
def golden():
    db = load_graph_database(_DATA / "golden_chem.jsonl")
    expected = json.loads((_DATA / "golden_answers.json").read_text())
    return db, expected


@pytest.fixture(scope="module")
def golden_queries(golden):
    _, expected = golden
    return [Graph.from_dict(case["query"]) for case in expected["subgraph"]]


@pytest.fixture(scope="module")
def golden_tree(golden):
    db, _ = golden
    return bulk_load(db, min_fanout=3)


# ----------------------------------------------------------------------
# Placement
# ----------------------------------------------------------------------
class TestPlacement:
    @pytest.mark.parametrize("shards", SHARD_COUNTS, ids=SHARD_IDS)
    def test_partition_invariants(self, golden, shards):
        db, _ = golden
        lists = place_graphs(db, shards)
        assert len(lists) == shards
        flat = [gid for gids in lists for gid in gids]
        # Every graph on exactly one shard...
        assert sorted(flat) == list(range(len(db)))
        # ...in ascending id order within each shard (the merge relies
        # on local->global id translation being monotone)...
        for gids in lists:
            assert gids == sorted(gids)
        # ...and capacity-balanced.
        cap = math.ceil(len(db) / shards)
        assert all(len(gids) <= cap for gids in lists)

    def test_hash_is_round_robin(self, golden):
        db, _ = golden
        lists = place_graphs(db, 3)
        for s, gids in enumerate(lists):
            assert all(gid % 3 == s for gid in gids)

    def test_rejects_bad_arguments(self, golden):
        db, _ = golden
        with pytest.raises(ConfigError):
            place_graphs(db, 0)
        with pytest.raises(ConfigError):
            place_graphs(db, len(db) + 1)
        # Round-robin is the one placement; the keyword the benchmark
        # spine still passes accepts its old name and nothing else.
        for gone in ("closure", "random"):
            with pytest.raises(ConfigError):
                ShardSet.build_memory(db, 2, placement=gone, min_fanout=3)

    def test_duplicate_placement_rejected(self):
        with pytest.raises(ConfigError):
            ShardSet([Shard(gids=[0, 1]), Shard(gids=[1, 2])])


# ----------------------------------------------------------------------
# Persistence: manifest round-trip and fsck
# ----------------------------------------------------------------------
class TestShardDirectory:
    def test_create_open_roundtrip(self, golden, tmp_path):
        db, _ = golden
        directory = tmp_path / "idx.shards"
        created = ShardSet.create(db, directory, shards=3, min_fanout=3)
        reopened = ShardSet.open(directory)
        assert reopened.is_disk
        assert reopened.shard_count == 3
        assert len(reopened) == len(db)
        assert [s.gids for s in reopened.shards] == \
            [s.gids for s in created.shards]

    @pytest.mark.parametrize("backend", ["memory", "disk"])
    def test_find_graphs_reads_only_the_holding_shards(
            self, golden, tmp_path, monkeypatch, backend):
        db, _ = golden
        if backend == "disk":
            sset = ShardSet.create(db, tmp_path / "idx.shards", shards=3,
                                   min_fanout=3)
        else:
            sset = ShardSet.build_memory(db, 3, min_fanout=3)
        opened = []
        open_read_only = DiskCTree.open_read_only
        monkeypatch.setattr(
            DiskCTree, "open_read_only",
            lambda path, *args: opened.append(Path(path).name)
            or open_read_only(path, *args))
        # Round-robin: ids 1, 4, 10 live on shard 1; 5 on shard 2.
        found = sset.find_graphs([10, 4, 1, 5, 999])
        assert sorted(found) == [1, 4, 5, 10]
        assert all(found[gid].name == db[gid].name
                   and found[gid] == db[gid] for gid in found)
        assert opened == (["shard-001.ctp", "shard-002.ctp"]
                          if backend == "disk" else [])
        assert sset.find_graphs([]) == {} and opened[2:] == []

    def test_fsck_clean(self, golden, tmp_path):
        db, _ = golden
        directory = tmp_path / "idx.shards"
        ShardSet.create(db, directory, shards=2, min_fanout=3)
        report = fsck_shards(directory)
        assert report.clean
        assert report.shard_count == 2
        assert report.total_graphs == len(db)
        assert all(r.clean for r in report.reports)

    def test_fsck_catches_duplicate_placement(self, golden, tmp_path):
        db, _ = golden
        directory = tmp_path / "idx.shards"
        ShardSet.create(db, directory, shards=2, min_fanout=3)
        manifest_path = directory / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        # Place shard 1's first graph on shard 0 as well.
        dup = manifest["shards"][1]["graphs"][0]
        manifest["shards"][0]["graphs"].append(dup)
        manifest_path.write_text(json.dumps(manifest))
        report = fsck_shards(directory)
        assert not report.clean
        assert any("placed on shards" in e for e in report.errors)

    def test_fsck_catches_count_mismatch(self, golden, tmp_path):
        db, _ = golden
        directory = tmp_path / "idx.shards"
        ShardSet.create(db, directory, shards=2, min_fanout=3)
        manifest_path = directory / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["shards"][0]["graphs"].pop()
        manifest_path.write_text(json.dumps(manifest))
        report = fsck_shards(directory)
        assert not report.clean

    def test_fsck_missing_manifest(self, tmp_path):
        report = fsck_shards(tmp_path)
        assert not report.clean


# ----------------------------------------------------------------------
# Engine determinism: the tentpole gate
# ----------------------------------------------------------------------
class TestShardedEngineDeterminism:
    @pytest.mark.parametrize("oracle", ORACLES)
    @pytest.mark.parametrize("shards", SHARD_COUNTS, ids=SHARD_IDS)
    def test_memory_identical_to_serial(self, golden, golden_queries,
                                        golden_tree, shards, oracle):
        db, expected = golden
        # The single tree's answers.
        ref_subgraph = [oracle_answers(oracle, golden_tree, q)
                        for q in golden_queries]
        ref_knn = [knn_query(golden_tree, q, 4)[0] for q in golden_queries]
        sset = ShardSet.build_memory(db, shards, min_fanout=3)
        with QueryEngine(sset) as engine:
            sub_results = engine.query_many(golden_queries)
            knn_results = engine.knn_many(golden_queries, 4)
        assert [a for a, _ in sub_results] == ref_subgraph
        assert [r for r, _ in knn_results] == ref_knn
        # The frozen golden oracle pins the answer *sets* end to end.
        assert [a for a, _ in sub_results] == \
            [case["answers"] for case in expected["subgraph"]]

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_disk_identical_to_single_disk_tree(self, golden,
                                                golden_queries,
                                                golden_tree, tmp_path,
                                                shards):
        db, _ = golden
        single_path = tmp_path / "single.ctp"
        DiskCTree.create(golden_tree, single_path, page_size=512,
                         cache_pages=32).close()
        directory = tmp_path / "idx.shards"
        ShardSet.create(db, directory, shards=shards, min_fanout=3,
                        page_size=512)
        with DiskCTree.open(single_path, cache_pages=32) as disk:
            ref_subgraph = [disk.subgraph_query(q)[0]
                            for q in golden_queries]
            ref_knn = [disk.knn_query(q, 4)[0] for q in golden_queries]
        with QueryEngine(ShardSet.open(directory)) as engine:
            sub_results = engine.query_many(golden_queries)
            knn_results = engine.knn_many(golden_queries, 4)
        assert [a for a, _ in sub_results] == ref_subgraph
        assert [r for r, _ in knn_results] == ref_knn

    def test_inline_fallback_identical(self, golden, golden_queries,
                                       golden_tree):
        """With fork unavailable the coordinator answers in-process;
        the answers must not change."""
        db, _ = golden
        sset = ShardSet.build_memory(db, 3, min_fanout=3)
        with QueryEngine(sset) as forked:
            want_sub = forked.query_many(golden_queries)
            want_knn = forked.knn_many(golden_queries, 4)
        inline = QueryEngine(sset)
        inline._fork_ok = False
        with inline:
            got_sub = inline.query_many(golden_queries)
            got_knn = inline.knn_many(golden_queries, 4)
        assert inline._pools is None
        assert [a for a, _ in got_sub] == [a for a, _ in want_sub]
        assert [r for r, _ in got_knn] == [r for r, _ in want_knn]

    def test_merged_stats_cover_whole_database(self, golden,
                                               golden_queries):
        db, _ = golden
        sset = ShardSet.build_memory(db, 2, "hash", min_fanout=3)
        with QueryEngine(sset) as engine:
            _, stats = engine.query_many(golden_queries[:1])[0]
        assert stats.database_size == len(db)


# ----------------------------------------------------------------------
# Engine cache behavior
# ----------------------------------------------------------------------
class TestShardedEngineCache:
    def test_refresh_clears_cache(self, golden, golden_queries):
        db, _ = golden
        sset = ShardSet.build_memory(db, 2, "hash", min_fanout=3)
        with QueryEngine(sset) as engine:
            engine.query_many(golden_queries[:2])
            assert engine.cache_entries > 0
            engine.refresh()
            assert engine.cache_entries == 0


# ----------------------------------------------------------------------
# The default answer cache
# ----------------------------------------------------------------------
class TestQueryEngineSatellites:
    def test_default_cache_unchanged(self, golden_tree, golden_queries):
        with QueryEngine(golden_tree, cache_size=256) as engine:
            engine.query_many(golden_queries)
            first = engine.last_batch
            engine.query_many(golden_queries)
            second = engine.last_batch
        assert first.cache_hits == 0
        assert second.cache_hits == len(golden_queries)


# ----------------------------------------------------------------------
# K-NN tie order of the serial query path
# ----------------------------------------------------------------------
class TestCanonicalKnn:
    def test_canonical_is_tie_sorted(self, golden_tree, golden_queries):
        for q in golden_queries:
            results, _ = knn_query(golden_tree, q, 4)
            assert results == sorted(results,
                                     key=lambda t: (-t[1], t[0]))
