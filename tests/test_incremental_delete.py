"""Incremental disk deletes: model-based interleaving vs an oracle.

The tentpole guarantee of the incremental delete path is that a
``DiskCTree`` shrunk in place (leaf-entry removal, shrink-or-keep
closures, bottom-up merge-or-redistribute, group commit, automatic
compaction) stays *observably identical* to a plain collection of the
surviving graphs: every subgraph query answers exactly like a linear
scan, every intermediate state passes ``fsck``, deleted ids really
disappear.
"""

import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ctree.bulkload import bulk_load
from repro.ctree import tree as tree_module
from repro.ctree.diskindex import DiskCTree
from repro.datasets.chemical import ChemicalConfig, generate_chemical_database
from repro.exceptions import IndexError_
from repro.matching.pseudo_iso import pseudo_compatibility_domains
from repro.matching.ullmann import subgraph_isomorphic
from repro.obs.metrics import global_registry

_CONFIG = ChemicalConfig(mean_vertices=8, large_fraction=0.0)
#: deterministic pool of graphs the model draws appends from
_POOL = generate_chemical_database(40, seed=11, config=_CONFIG)
_QUERIES = generate_chemical_database(4, seed=23, config=_CONFIG)


def _linear_answers(graphs: dict, query) -> list:
    """The oracle: a verified linear scan over the live graph set."""
    return sorted(
        gid for gid, g in graphs.items()
        if subgraph_isomorphic(
            query, g, pseudo_compatibility_domains(query, g, 1))
    )


def _make_index(path, count=8, min_fanout=2, max_fanout=4):
    """A small disk index over the pool's first ``count`` graphs plus
    its oracle dict."""
    tree = bulk_load(_POOL[:count], min_fanout=min_fanout,
                     max_fanout=max_fanout)
    disk = DiskCTree.create(tree, path, page_size=256, cache_pages=8)
    return disk, dict(enumerate(_POOL[:count]))


#: (op selector, operand) — 0: append, 1/2: delete 1 or a batch,
#: 3: query, 4: fsck, 5: forced compaction
_MODEL_OPS = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 10 ** 6)),
    min_size=1, max_size=12,
)


def _assert_entry_histograms(disk) -> None:
    """Every leaf entry carries the label histogram of the graph it
    points at — Alg. 3 prunes on it without reading the graph, so a
    stale one would be a silent false negative."""
    for _, node in disk.nodes():
        if not node.is_leaf:
            continue
        for entry in node.children:
            graph = disk.store.load_graph(entry)
            vhist, ehist = entry.vhist, entry.ehist
            assert dict(zip(vhist[::2], vhist[1::2])) == \
                Counter(map(graph.label, graph.vertices())), entry.graph_id
            assert dict(zip(ehist[::2], ehist[1::2])) == \
                Counter(label for _, _, label in graph.edges()), \
                entry.graph_id


class TestIncrementalDeleteModel:
    @given(_MODEL_OPS)
    @settings(max_examples=12, deadline=None)
    def test_interleaved_churn_matches_oracle(self, ops):
        """Interleave deletes with appends, compactions and queries; at
        every point the disk index answers exactly like the in-memory
        oracle over the surviving set, every leaf entry's stored
        histogram is its graph's (through splits, merges,
        redistributes, root collapse and repacking), and the on-disk
        structure stays fsck-clean."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.ctp"
            disk, oracle = _make_index(path)
            cursor = len(oracle)
            with disk:
                for selector, operand in ops:
                    if selector == 0:
                        batch = [_POOL[(cursor + i) % len(_POOL)]
                                 for i in range(2)]
                        ids = disk.extend(batch)
                        for gid, g in zip(ids, batch):
                            assert gid not in oracle, \
                                "extend reissued a live id"
                            oracle[gid] = g
                        cursor += 2
                    elif selector in (1, 2) and oracle:
                        live = sorted(oracle)
                        count = 1 if selector == 1 else \
                            min(3, len(live))
                        victims = [live[(operand + i) % len(live)]
                                   for i in range(count)]
                        victims = sorted(set(victims))
                        removed = disk.delete_many(victims)
                        for gid, g in zip(victims, removed):
                            assert g.num_vertices == \
                                oracle[gid].num_vertices
                            del oracle[gid]
                    elif selector == 3:
                        query = _QUERIES[operand % len(_QUERIES)]
                        answers, _ = disk.subgraph_query(query)
                        assert sorted(answers) == \
                            _linear_answers(oracle, query)
                    elif selector == 5:
                        disk.compact(seed=operand, force=True)
                    else:
                        disk.flush()
                        report = DiskCTree.fsck(path, deep=False)
                        assert report.clean, report.errors
                    assert len(disk) == len(oracle)
                    _assert_entry_histograms(disk)
                # Final state: every query agrees, ids match exactly.
                for query in _QUERIES:
                    answers, _ = disk.subgraph_query(query)
                    assert sorted(answers) == _linear_answers(oracle, query)
                assert sorted(dict(disk.iter_graphs())) == sorted(oracle)
            report = DiskCTree.fsck(path, deep=True)
            assert report.clean, report.errors


class TestDeleteEdgeCases:
    def test_delete_then_reinsert_same_graph(self):
        """A deleted graph reinserted by a later append gets a fresh id
        (the watermark never reissues one) and answers queries again."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "reinsert.ctp"
            disk, oracle = _make_index(path)
            with disk:
                victim = oracle[3]
                (removed,) = disk.delete_many([3])
                assert removed.to_dict() == victim.to_dict()
                answers, _ = disk.subgraph_query(victim)
                assert 3 not in answers
                (new_id,) = disk.extend([victim])
                assert new_id == len(oracle)  # watermark, not a reuse
                answers, _ = disk.subgraph_query(victim)
                assert new_id in answers and 3 not in answers
            report = DiskCTree.fsck(path, deep=True)
            assert report.clean, report.errors

    def test_create_keeps_the_memory_trees_watermark(self):
        """An id a memory tree issued and freed is not issued again by
        the disk index written from it: ``create`` carries the tree's
        own watermark, not 1 + its highest live id."""
        tree = bulk_load(_POOL[:10], min_fanout=2, max_fanout=4)
        tree.delete_many([9])
        assert tree.extend([_POOL[10]]) == [10]
        tree.delete_many([10])
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "watermark.ctp"
            with DiskCTree.create(tree, path, page_size=256,
                                  cache_pages=8) as disk:
                assert disk.extend([_POOL[11]]) == [11]
            report = DiskCTree.fsck(path, deep=True)
            assert report.clean, report.errors

    def test_delete_to_empty_and_grow_again(self):
        """Deleting every graph leaves a valid, queryable empty index
        that a later append can regrow."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "empty.ctp"
            disk, oracle = _make_index(path)
            with disk:
                disk.delete_many(sorted(oracle), auto_compact=False)
                assert len(disk) == 0
                assert disk.height == 0
                answers, _ = disk.subgraph_query(_QUERIES[0])
                assert answers == []
                report = DiskCTree.fsck(path, deep=True)
                assert report.clean, report.errors
                ids = disk.extend(_POOL[:3])
                assert ids == [8, 9, 10]  # watermark survived emptiness
                answers, _ = disk.subgraph_query(_POOL[0])
                assert ids[0] in answers
            report = DiskCTree.fsck(path, deep=True)
            assert report.clean, report.errors

    def test_delete_last_entry_in_leaf_frees_the_leaf(self):
        """Draining one leaf entirely must dissolve it (merge or death)
        rather than leave an empty node behind."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "drain.ctp"
            disk, oracle = _make_index(path, count=12)
            with disk:
                # Delete one id at a time until some leaf has emptied;
                # fsck after every step would mask nothing because each
                # delete commits.
                for gid in sorted(oracle):
                    disk.delete_many([gid], auto_compact=False)
                    report = DiskCTree.fsck(path, deep=False)
                    assert report.clean, report.errors
                    for _, node in disk.nodes():
                        assert node.children or len(disk) == 0, \
                            "empty node left in the tree"

    def test_missing_and_duplicate_ids_rejected_before_mutation(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "reject.ctp"
            disk, oracle = _make_index(path)
            with disk:
                generation = disk.generation
                with pytest.raises(IndexError_):
                    disk.delete_many([99])
                with pytest.raises(IndexError_):
                    disk.delete_many([0, 99])
                with pytest.raises(IndexError_):
                    disk.delete_many([1, 1])
                # Nothing mutated, nothing committed.
                assert disk.generation == generation
                assert len(disk) == len(oracle)
                assert sorted(dict(disk.iter_graphs())) == sorted(oracle)


class TestDeleteCounters:
    def test_group_commit_and_counters(self):
        """One delete batch is one group commit; the maintenance
        counters move."""
        registry = global_registry()
        names = ("ctree.disk.deletes", "ctree.disk.group_commits",
                 "ctree.disk.underflow_merges",
                 "ctree.disk.closure_shrinks")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "counters.ctp"
            disk, oracle = _make_index(path, count=16)
            before = {n: registry.counter(n).value for n in names}
            with disk:
                disk.delete_many(sorted(oracle)[:10], auto_compact=False)
            delta = {n: registry.counter(n).value - before[n]
                     for n in names}
        assert delta["ctree.disk.deletes"] == 10
        assert delta["ctree.disk.group_commits"] == 1
        assert delta["ctree.disk.underflow_merges"] > 0
        assert delta["ctree.disk.closure_shrinks"] > 0

    def test_wal_commits_once_per_batch(self):
        """The whole delete batch shares a single WAL commit."""
        registry = global_registry()
        commits = registry.counter("wal.commits")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "commit.ctp"
            disk, oracle = _make_index(path, count=12)
            with disk:
                before = commits.value
                disk.delete_many(sorted(oracle)[:6], auto_compact=False)
                assert commits.value - before == 1


class TestCompaction:
    def test_compact_noop_on_healthy_tree(self):
        registry = global_registry()
        compactions = registry.counter("ctree.disk.compactions")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "healthy.ctp"
            disk, _ = _make_index(path, count=16)
            with disk:
                before = compactions.value
                assert disk.compaction_needed() is None
                assert disk.compact() is None
                assert compactions.value == before

    def test_forced_compact_preserves_ids_and_answers(self):
        registry = global_registry()
        compactions = registry.counter("ctree.disk.compactions")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "forced.ctp"
            disk, oracle = _make_index(path, count=16)
            with disk:
                disk.delete_many([0, 2, 4], auto_compact=False)
                for gid in (0, 2, 4):
                    del oracle[gid]
                want = {q: _linear_answers(oracle, q) for q in _QUERIES}
                c0 = compactions.value
                generation = disk.generation
                assert disk.compact(force=True) == "forced"
                assert compactions.value == c0 + 1
                assert disk.generation == generation + 1
                assert sorted(dict(disk.iter_graphs())) == sorted(oracle)
                for query, expected in want.items():
                    answers, _ = disk.subgraph_query(query)
                    assert sorted(answers) == expected
            report = DiskCTree.fsck(path, deep=True)
            assert report.clean, report.errors

    def test_occupancy_trigger_fires_and_restores(self, monkeypatch):
        """Hollow the tree out below a raised occupancy threshold; the
        delete's auto-compact must notice and restore occupancy."""
        registry = global_registry()
        compactions = registry.counter("ctree.disk.compactions")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "trigger.ctp"
            tree = bulk_load(_POOL, min_fanout=2, max_fanout=4)
            with DiskCTree.create(tree, path, page_size=256,
                                  cache_pages=32) as disk:
                # Degrade without repacking, measure, then let one more
                # delete's automatic check catch it.
                # any churn looks degraded
                monkeypatch.setattr(tree_module, "DEFAULT_MIN_OCCUPANCY", 0.99)
                before = compactions.value
                disk.delete_many(list(range(0, 30, 2)),
                                 auto_compact=False)
                degraded = disk.occupancy
                assert disk.compaction_needed() is not None
                disk.delete_many([1])  # auto_compact=True is the default
                assert compactions.value == before + 1
                assert disk.occupancy >= degraded
            report = DiskCTree.fsck(path, deep=True)
            assert report.clean, report.errors

    def test_height_trigger(self, monkeypatch):
        """The height signal compares against the packed bulk-load
        height: a fresh tree stays quiet, and tightening the slack to
        an impossible value trips it."""
        monkeypatch.setattr(tree_module, "DEFAULT_MIN_OCCUPANCY", 0.0)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "height.ctp"
            disk, _ = _make_index(path, count=8)
            with disk:
                assert disk.compaction_needed() is None
                monkeypatch.setattr(tree_module, "DEFAULT_HEIGHT_SLACK",
                                    -disk.height - 1)
                reason = disk.compaction_needed()
                assert reason is not None and "height" in reason


class TestFsckDeleteInvariants:
    """Each delete-era fsck check must actually fire: corrupt exactly
    the metadata it guards and watch it report."""

    @staticmethod
    def _tamper(path, **fields):
        """Open, overwrite metadata fields, commit, close."""
        with DiskCTree.open(path) as disk:
            disk._meta.update(fields)
            disk._write_meta()
            disk.checkpoint()

    def test_leaf_count_mismatch_detected(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "leafcount.ctp"
            disk, _ = _make_index(path, count=12)
            with disk:
                honest = disk._meta["leaf_count"]
            self._tamper(path, leaf_count=honest + 1)
            report = DiskCTree.fsck(path)
            assert not report.clean
            assert any("leaves" in e for e in report.errors), report.errors

    def test_id_watermark_violation_detected(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "watermark.ctp"
            disk, oracle = _make_index(path, count=12)
            disk.close()
            # Claim a watermark below a live id: a reissue waiting to
            # happen, which fsck must flag before it does.
            self._tamper(path, next_id=max(oracle))
            report = DiskCTree.fsck(path)
            assert not report.clean
            assert any("watermark" in e for e in report.errors), \
                report.errors

    def test_degraded_occupancy_noted_not_errored(self):
        """Genuinely hollowed leaves (wide fanout, deep deletes, no
        repack) earn an advisory note — never an error, because the
        compaction trigger owns the repacking decision."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "hollow.ctp"
            tree = bulk_load(_POOL[:32], min_fanout=2, max_fanout=8)
            with DiskCTree.create(tree, path, page_size=256,
                                  cache_pages=32) as disk:
                # Trim every leaf down to exactly min_fanout: no node
                # underflows, so nothing merges, and occupancy sinks to
                # m/M = 0.25 — well under the 0.40 advisory line.
                victims = []
                for _, node in disk.nodes():
                    if node.is_leaf:
                        victims += [entry.graph_id
                                    for entry in node.children[2:]]
                disk.delete_many(sorted(victims), auto_compact=False)
            report = DiskCTree.fsck(path, deep=True)
            assert report.clean, report.errors
            assert any("occupancy" in n for n in report.notes), \
                report.notes
