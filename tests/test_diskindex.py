"""Tests for the disk-backed C-tree."""

import hashlib

import pytest

from repro.exceptions import PersistenceError
from repro.graphs.graph import Graph
from repro.ctree.bulkload import bulk_load
from repro.ctree.diskindex import DiskCTree
from repro.ctree.subgraph_query import linear_scan_subgraph_query, subgraph_query
from repro.datasets.chemical import ChemicalConfig, generate_chemical_database
from repro.datasets.queries import generate_subgraph_queries


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    db = generate_chemical_database(
        40, seed=77, config=ChemicalConfig(mean_vertices=12, large_fraction=0.0)
    )
    tree = bulk_load(db, min_fanout=3)
    path = tmp_path_factory.mktemp("disk") / "index.ctp"
    disk = DiskCTree.create(tree, path, page_size=512, cache_pages=64)
    yield db, tree, disk, path
    disk.close()


class TestCreateOpen:
    def test_metadata(self, world):
        db, tree, disk, _ = world
        assert len(disk) == len(db)
        assert disk.height == tree.height()

    def test_iter_graphs_complete(self, world):
        db, _, disk, _ = world
        stored = dict(disk.iter_graphs())
        assert len(stored) == len(db)
        for gid, graph in stored.items():
            assert graph == db[gid]

    def test_reopen_cold(self, world):
        db, _, _, path = world
        with DiskCTree.open(path, cache_pages=8) as cold:
            assert len(cold) == len(db)
            stored = dict(cold.iter_graphs())
            assert stored[0] == db[0]

    def test_open_rejects_non_index(self, tmp_path):
        from repro.storage.pagefile import PageFile

        path = tmp_path / "empty.ctp"
        PageFile.create(path, page_size=256).close()
        with pytest.raises(PersistenceError):
            DiskCTree.open(path)

    def test_read_only_close_keeps_a_later_commit(self, tmp_path):
        """A reader opened before a writer's commit must not write its
        stale header back on close: the file stays byte-identical and
        fsck-clean."""
        db = generate_chemical_database(
            60, seed=78,
            config=ChemicalConfig(mean_vertices=12, large_fraction=0.0))
        path = tmp_path / "shared.ctp"
        DiskCTree.create(bulk_load(db[:40], min_fanout=3), path,
                         page_size=512).close()
        reader = DiskCTree.open_read_only(path)
        with DiskCTree.open(path) as writer:
            writer.extend(db[40:])
        committed = hashlib.sha256(path.read_bytes()).hexdigest()
        reader.close()
        assert hashlib.sha256(path.read_bytes()).hexdigest() == committed
        report = DiskCTree.fsck(path)
        assert report.clean, report.errors
        with DiskCTree.open_read_only(path) as fresh:
            assert len(fresh) == len(db)

    def test_closed_index_rejects_queries(self, world, tmp_path):
        db, tree, _, _ = world
        path = tmp_path / "t.ctp"
        disk = DiskCTree.create(tree, path)
        disk.close()
        with pytest.raises(PersistenceError):
            disk.subgraph_query(Graph(["C"]))


class TestQueries:
    @pytest.mark.parametrize("level", [1, "max"])
    def test_matches_memory_index(self, world, level):
        db, tree, disk, _ = world
        for q in generate_subgraph_queries(db, 6, 4, seed=level == 1):
            mem_answers, _ = subgraph_query(tree, q, level=level)
            disk_answers, _ = disk.subgraph_query(q, level=level)
            assert sorted(disk_answers) == sorted(mem_answers)

    def test_matches_linear_scan(self, world):
        db, _, disk, _ = world
        q = generate_subgraph_queries(db, 8, 1, seed=9)[0]
        answers, _ = disk.subgraph_query(q)
        expected = linear_scan_subgraph_query(
            {i: g for i, g in enumerate(db)}, q
        )
        assert sorted(answers) == sorted(expected)

    def test_stats_track_io(self, world):
        """On a handle's first query; the shared handle is warm, and a
        warm query may find all it reads resident."""
        db, _, _, path = world
        q = generate_subgraph_queries(db, 5, 1, seed=10)[0]
        with DiskCTree.open_read_only(path) as fresh:
            _, stats = fresh.subgraph_query(q)
        assert stats.page_hits + stats.page_misses > 0
        assert 0.0 <= stats.page_hit_ratio <= 1.0
        assert stats.candidates >= stats.answers

    def test_verify_false(self, world):
        db, _, disk, _ = world
        q = generate_subgraph_queries(db, 5, 1, seed=11)[0]
        candidates, stats = disk.subgraph_query(q, verify=False)
        assert len(candidates) == stats.candidates
        answers, _ = disk.subgraph_query(q)
        assert set(answers) <= set(candidates)


class TestCacheBehavior:
    def test_small_cache_more_misses(self, world, tmp_path):
        db, tree, _, _ = world
        q = generate_subgraph_queries(db, 5, 1, seed=12)[0]

        def misses_with_cache(pages: int) -> int:
            path = tmp_path / f"c{pages}.ctp"
            DiskCTree.create(tree, path, page_size=512,
                             cache_pages=pages).close()
            with DiskCTree.open(path, cache_pages=pages) as disk:
                disk.subgraph_query(q)  # warm
                _, stats = disk.subgraph_query(q)  # measured
                return stats.page_misses

        large = misses_with_cache(4096)
        small = misses_with_cache(2)
        assert large == 0  # everything cached after the warm-up query
        assert small > large

    def test_wildcard_queries_work_on_disk(self, world):
        from repro.graphs.closure import WILDCARD

        db, tree, disk, _ = world
        q = Graph(["C", WILDCARD], [(0, 1)])
        disk_answers, _ = disk.subgraph_query(q)
        mem_answers, _ = subgraph_query(tree, q)
        assert sorted(disk_answers) == sorted(mem_answers)


class TestDiskKnn:
    def test_matches_memory_similarities(self, world):
        from repro.ctree.similarity_query import knn_query

        db, tree, disk, _ = world
        for qid in (3, 17):
            disk_results, stats = disk.knn_query(db[qid], 5)
            mem_results, _ = knn_query(tree, db[qid], 5)
            disk_sims = sorted((s for _, s in disk_results), reverse=True)
            mem_sims = sorted((s for _, s in mem_results), reverse=True)
            assert disk_sims == pytest.approx(mem_sims)
            assert stats.page_hits + stats.page_misses > 0

    def test_k_zero(self, world):
        db, _, disk, _ = world
        results, _ = disk.knn_query(db[0], 0)
        assert results == []

    def test_k_exceeds_database(self, world):
        db, _, disk, _ = world
        results, _ = disk.knn_query(db[0], len(db) + 10)
        assert len(results) == len(db)

    def test_results_sorted_and_distinct(self, world):
        db, _, disk, _ = world
        results, _ = disk.knn_query(db[1], 6)
        sims = [s for _, s in results]
        assert sims == sorted(sims, reverse=True)
        assert len({gid for gid, _ in results}) == len(results)
