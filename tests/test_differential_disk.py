"""Differential tests: the disk index must answer exactly like the
in-memory C-tree and like the reference matchers (the two ``ORACLES``),
for seeded corpora — and a handle that keeps decoded nodes resident
exactly like one that has just been opened, whatever reads and write
batches it has been through."""

import gc
import json
import random
import tempfile
import tracemalloc
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ctree import store as store_module
from repro.ctree.bulkload import bulk_load
from repro.ctree.diskindex import DiskCTree, DiskKnnStats, DiskQueryStats
from repro.ctree.similarity_query import (
    knn_query,
    linear_scan_knn,
    range_query,
)
from repro.ctree.store import (
    decode_nbm_context,
    dump_record,
    encode_closure,
)
from repro.ctree.subgraph_query import (
    linear_scan_subgraph_query,
    subgraph_query,
)
from repro.ctree.tree import CTree
from repro.datasets.chemical import ChemicalConfig, generate_chemical_database
from repro.datasets.queries import generate_subgraph_queries
from repro.graphs.closure import GraphClosure
from repro.graphs.graph import Graph
from repro.graphs.io import load_graph_database
from repro.graphs.labelspace import TargetContext, reset_labelspace
from repro.obs.metrics import global_registry
from repro.storage.faultfs import FaultInjector, FaultPlan, SimulatedCrash

from conftest import ORACLES, oracle_answers, reference_scan, stored_graphs

SEEDS = [11, 23, 47]
_DATA = Path(__file__).parent / "data"
_CONFIG = ChemicalConfig(mean_vertices=11, large_fraction=0.0)


def _world(tmp_path, seed):
    """A bulk-loaded tree and the disk index written from it: the two
    stores hold value-identical nodes, so the one traversal must do
    identical work over either."""
    db = generate_chemical_database(30, seed=seed, config=_CONFIG)
    tree = bulk_load(db, min_fanout=3)
    path = tmp_path / f"diff-{seed}.ctp"
    disk = DiskCTree.create(tree, path, page_size=512, cache_pages=16)
    return db, tree, disk


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("oracle", ORACLES)
class TestSubgraphDifferential:
    def test_disk_equals_memory(self, tmp_path, seed, oracle):
        db, tree, disk = _world(tmp_path, seed)
        try:
            for q in generate_subgraph_queries(db, 6, 5, seed=seed):
                dsk, _ = disk.subgraph_query(q)
                assert dsk == oracle_answers(oracle, tree, q)
        finally:
            disk.close()

    def test_disk_equals_linear_scan(self, tmp_path, seed, oracle):
        db, _, disk = _world(tmp_path, seed)
        try:
            q = generate_subgraph_queries(db, 7, 1, seed=seed + 1)[0]
            expected = linear_scan_subgraph_query(db, q) \
                if oracle == "kernels" else reference_scan(enumerate(db), q)
            answers, _ = disk.subgraph_query(q)
            assert answers == sorted(expected)
        finally:
            disk.close()


@pytest.mark.parametrize("seed", SEEDS)
class TestKnnDifferential:
    def test_similarities_match_linear_scan(self, tmp_path, seed):
        """The index's pruning must not lose neighbors: the answer must
        equal a brute-force scan over the database the index was built
        from, boundary ties included."""
        db, tree, disk = _world(tmp_path, seed)
        try:
            for qid in (0, len(db) // 2):
                dsk, _ = disk.knn_query(db[qid], 4)
                assert dsk == linear_scan_knn(dict(enumerate(db)), db[qid], 4)
        finally:
            disk.close()


class TestAppendDifferential:
    @pytest.mark.parametrize("oracle", ORACLES)
    def test_append_equals_bulk_rebuild(self, tmp_path, oracle):
        """create(A) + append(B) must answer exactly like an index bulk
        loaded over A+B in one go: same ids, same answers."""
        a = generate_chemical_database(14, seed=5, config=_CONFIG)
        b = generate_chemical_database(7, seed=6, config=_CONFIG)
        disk = DiskCTree.create(bulk_load(a, min_fanout=3),
                                tmp_path / "appended.ctp",
                                page_size=512, cache_pages=16)
        new_ids = disk.extend(b)
        assert new_ids == list(range(len(a), len(a) + len(b)))

        rebuilt = bulk_load(a + b, min_fanout=3)
        try:
            for q in generate_subgraph_queries(a + b, 6, 4, seed=8):
                dsk, _ = disk.subgraph_query(q)
                assert dsk == oracle_answers(oracle, rebuilt, q)
            stored = dict(disk.iter_graphs())
            assert len(stored) == len(a) + len(b)
            for gid, graph in enumerate(a + b):
                assert stored[gid] == graph
        finally:
            disk.close()

    def test_append_empty_batch_is_noop(self, tmp_path):
        a = generate_chemical_database(8, seed=5, config=_CONFIG)
        path = tmp_path / "noop.ctp"
        with DiskCTree.create(bulk_load(a, min_fanout=3), path) as disk:
            assert disk.extend([]) == []
            assert disk.generation == 1

    def test_append_reuses_freed_pages(self, tmp_path):
        """The rebuild frees the old generation's records; most of the new
        generation must land on recycled pages, not file growth."""
        a = generate_chemical_database(14, seed=5, config=_CONFIG)
        b = generate_chemical_database(2, seed=6, config=_CONFIG)
        path = tmp_path / "reuse.ctp"
        disk = DiskCTree.create(bulk_load(a, min_fanout=3), path,
                                page_size=512, cache_pages=16)
        try:
            pages_before = disk.pool.pagefile.page_count
            disk.extend(b)
            pages_after = disk.pool.pagefile.page_count
            # Strictly less than storing a full second copy side by side.
            assert pages_after < 2 * pages_before
        finally:
            disk.close()
        report = DiskCTree.fsck(path, deep=True)
        assert report.clean, report.errors


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("oracle", ORACLES)
class TestChurnDifferential:
    def test_churn_equals_memory_oracle(self, tmp_path, seed, oracle):
        """A mixed insert/delete churn on the disk index must answer
        exactly like a fresh in-memory C-tree built over whatever
        graphs survived — or like the reference matchers over them."""
        base = generate_chemical_database(20, seed=seed, config=_CONFIG)
        extra = generate_chemical_database(
            12, seed=seed + 100, config=_CONFIG
        )
        path = tmp_path / f"churn-{seed}.ctp"
        disk = DiskCTree.create(
            bulk_load(base, min_fanout=2, max_fanout=4), path,
            page_size=512, cache_pages=16,
        )
        try:
            survivors = dict(enumerate(base))
            rng = random.Random(seed)
            pending = list(extra)
            for _ in range(4):
                victims = rng.sample(sorted(survivors), 4)
                disk.delete_many(victims, seed=seed)
                for gid in victims:
                    del survivors[gid]
                batch, pending = pending[:3], pending[3:]
                for gid, graph in zip(disk.extend(batch), batch):
                    survivors[gid] = graph

            assert dict(disk.iter_graphs()) == survivors

            # The fresh tree numbers the survivors 0.. in id order.
            ids = sorted(survivors)
            fresh = CTree(min_fanout=2, max_fanout=4)
            fresh.extend(survivors[gid] for gid in ids)
            pool = list(survivors.values())
            for q in generate_subgraph_queries(pool, 6, 5, seed=seed):
                dsk, _ = disk.subgraph_query(q)
                assert dsk == [ids[i] for i in oracle_answers(oracle,
                                                              fresh, q)]
        finally:
            disk.close()
        report = DiskCTree.fsck(path, deep=True)
        assert report.clean, report.errors


@pytest.mark.parametrize("seed", SEEDS)
class TestOneTraversalTwoStores:
    """Pins the unification: memory and disk run the *same* Alg. 3 /
    Alg. 4 / range code, so on identical data every deterministic
    counter — not just the answer — must agree."""

    @pytest.mark.parametrize("oracle", ORACLES)
    def test_subgraph_counters_identical(self, tmp_path, seed, oracle):
        db, tree, disk = _world(tmp_path, seed)
        page_io = []
        with disk:
            for level in (1, "max"):
                for q in generate_subgraph_queries(db, 6, 4, seed=seed):
                    mem, mem_stats = subgraph_query(tree, q, level=level)
                    dsk, dsk_stats = disk.subgraph_query(q, level=level)
                    assert dsk == mem
                    if oracle == "reference":
                        assert dsk == reference_scan(stored_graphs(disk), q)
                    assert isinstance(dsk_stats, DiskQueryStats)
                    assert not isinstance(mem_stats, DiskQueryStats)
                    page_io.append(dsk_stats.page_hits
                                   + dsk_stats.page_misses)
                    mem_counters = mem_stats.deterministic_dict()
                    dsk_counters = dsk_stats.deterministic_dict()
                    assert dsk_counters == mem_counters
                    # The module-level entry point IS the method.
                    again, _ = subgraph_query(disk, q, level=level)
                    assert again == dsk
        # The handle's first query reads pages; a later one may find
        # every node and graph context it needs resident and read none.
        assert page_io[0] > 0

    @pytest.mark.parametrize("oracle", ORACLES)
    def test_knn_counters_identical(self, tmp_path, seed, oracle):
        db, tree, disk = _world(tmp_path, seed)
        with disk:
            for qid in (0, 7, len(db) - 1):
                mem, mem_stats = knn_query(tree, db[qid], 4)
                dsk, dsk_stats = knn_query(disk, db[qid], 4)
                assert dsk == mem
                if oracle == "reference":
                    # no descent: every database graph scored
                    assert dsk == linear_scan_knn(dict(enumerate(db)),
                                                  db[qid], 4)
                assert isinstance(dsk_stats, DiskKnnStats)
                assert dsk_stats.deterministic_dict() \
                    == mem_stats.deterministic_dict()

    def test_range_query_runs_on_disk(self, tmp_path, seed):
        """``range_query`` has no disk-specific code: handed a
        ``DiskCTree`` it returns the memory tree's answers, distances
        and counters, plus the page I/O it caused."""
        db, tree, disk = _world(tmp_path, seed)
        with disk:
            for qid, radius in ((1, 2.0), (5, 6.0), (9, 0.0)):
                mem, mem_stats = range_query(tree, db[qid], radius)
                dsk, dsk_stats = range_query(disk, db[qid], radius)
                assert dsk == mem
                assert any(gid == qid for gid, _ in dsk)
                assert isinstance(dsk_stats, DiskKnnStats)
                assert dsk_stats.page_hits + dsk_stats.page_misses
                assert dsk_stats.deterministic_dict() \
                    == mem_stats.deterministic_dict()

    def test_maintenance_runs_on_both_stores(self, tmp_path, seed):
        """One Section 5 implementation: the same deletes and inserts
        leave the in-memory tree and the disk index valid (every node
        within [m, M], every graph inside each ancestor closure), over
        the same ids, answering alike."""
        db, tree, disk = _world(tmp_path, seed)
        extra = generate_chemical_database(8, seed=seed + 1, config=_CONFIG)
        with disk:
            victims = random.Random(seed).sample(range(len(db)), 14)
            disk.delete_many(victims, auto_compact=False)
            new_ids = disk.extend(extra)
            tree.delete_many(victims, auto_compact=False)
            assert tree.extend(extra) == new_ids
            tree.validate(deep=True)
            disk.validate(deep=True)
            assert sorted(tree.graph_ids()) == sorted(disk.graph_ids())
            assert dict(disk.iter_graphs()) == dict(tree.graphs())
            for q in generate_subgraph_queries(db + extra, 6, 4, seed=seed):
                assert sorted(disk.subgraph_query(q)[0]) \
                    == sorted(subgraph_query(tree, q)[0])

    def test_one_walk_two_stores(self, tmp_path, seed):
        """One soundness check: the walk ``validate`` runs on memory and
        on disk is the one ``fsck`` runs, so the three report the same
        findings — none on the trees the maintenance above leaves, and
        the same ones once one leaf closure is broken in both stores."""
        db, tree, disk = _world(tmp_path, seed)
        path = disk.path
        extra = generate_chemical_database(8, seed=seed + 1, config=_CONFIG)
        victims = random.Random(seed).sample(range(len(db)), 14)
        with disk:
            disk.delete_many(victims, auto_compact=False)
            disk.extend(extra)
            tree.delete_many(victims, auto_compact=False)
            tree.extend(extra)
            assert tree.check(1) == disk.check(1) == []
        assert DiskCTree.fsck(path, deep=True).errors == []

        (tmp_path / "broken").mkdir()
        db, tree, disk = _world(tmp_path / "broken", seed)
        path = disk.path
        point = GraphClosure([{"C"}])

        def holds_first(node):
            return node.is_leaf and any(entry.graph_id == 0
                                        for entry in node.children)

        next(node for _, node in tree.nodes() if holds_first(node)) \
            .closure = point
        with disk:
            ref = next(ref for ref, node in disk.nodes() if holds_first(node))
            record = disk.store.load_record(ref)
            record["closure"] = encode_closure(point)
            disk.store.records.update(ref, dump_record(record))
            disk.checkpoint()
        with DiskCTree.open_read_only(path) as reopened:
            on_disk = reopened.check(1)
        in_memory = tree.check(1)
        assert in_memory and all(e.startswith("graph ") for e in in_memory)
        assert in_memory == on_disk == DiskCTree.fsck(path, deep=True).errors


def _shape(index):
    """Every node in depth-first child order: its depth, leaf flag, child
    count, its closure's vertex label multiset (None for the empty
    root) and, of a leaf, its graph ids."""
    store, out = index.store, []

    def walk(ref, depth):
        node = store.load_node(ref)
        labels = None if node.closure is None else sorted(
            sorted(map(repr, node.closure.label_set(v)))
            for v in node.closure.vertices())
        out.append((depth, node.is_leaf, len(node.children), labels,
                    [e.graph_id for e in node.children]
                    if node.is_leaf else None))
        if not node.is_leaf:
            for child in node.children:
                walk(child, depth + 1)

    walk(store.root, 0)
    return out


def _same_tree(memory, disk) -> None:
    """``memory`` and ``disk`` hold one tree: one shape, the same
    recorded shape and watermark, and no finding on either."""
    keys = ("graph_count", "next_id", "height", "leaf_count")
    assert [memory.store.meta[k] for k in keys] \
        == [disk.store.meta[k] for k in keys]
    assert _shape(memory) == _shape(disk)
    assert memory.check() == [] and disk.check() == []


@pytest.mark.parametrize("seed", [11, 23, 47, 101])
def test_memory_and_disk_inserts_grow_one_shape(tmp_path, seed):
    """Section 5's insert over either store, from one seed, builds the
    same tree node for node: Alg. 1 reads no adjacency order, so a
    closure folded in memory and one read back from a record choose and
    split alike.  (One batch; the property below runs many.)"""
    db = generate_chemical_database(40, seed=seed, config=_CONFIG)
    tree = CTree(min_fanout=2, max_fanout=4)
    assert tree.extend(db, seed=seed) == list(range(len(db)))
    empty = CTree(min_fanout=2, max_fanout=4)
    with DiskCTree.create(empty, tmp_path / "grown.ctp", page_size=512,
                          cache_pages=16) as disk:
        assert disk.extend(db, seed=seed) == list(range(len(db)))
        assert disk.height == tree.height() >= 2
        _same_tree(tree, disk)


#: graphs the write-surface property draws its extend batches from
_GROWTH = generate_chemical_database(24, seed=5, config=_CONFIG)
_EXTEND = st.tuples(st.just("extend"), st.integers(1, 9),
                    st.integers(0, 2 ** 16))
_WRITE = st.one_of(_EXTEND,
                   st.tuples(st.just("delete"), st.integers(1, 6),
                             st.integers(0, 2 ** 16)),
                   st.tuples(st.just("compact"), st.just(0),
                             st.integers(0, 2 ** 16)))


@given(_EXTEND, _EXTEND, st.lists(_WRITE, max_size=5))
@settings(max_examples=12, deadline=None)
def test_memory_and_disk_grow_one_tree(first, second, more):
    """One write surface: any sequence of ``extend`` batches,
    ``delete_many`` batches (automatic compaction on) and forced
    ``compact`` runs, one seed per batch, grows one tree on a memory
    tree and on a disk index — compared after every step."""
    memory = CTree(min_fanout=2, max_fanout=4)
    drawn = 0
    with tempfile.TemporaryDirectory() as tmp, DiskCTree.create(
            CTree(min_fanout=2, max_fanout=4), Path(tmp) / "one.ctp",
            page_size=512, cache_pages=16, wal=False) as disk:
        for kind, size, seed in [first, second, *more]:
            if kind == "extend":
                batch = [_GROWTH[(drawn + i) % len(_GROWTH)]
                         for i in range(size)]
                drawn += size
                assert memory.extend(batch, seed=seed) \
                    == disk.extend(batch, seed=seed)
            elif kind == "delete":
                live = sorted(memory.graph_ids())
                victims = random.Random(seed).sample(live,
                                                     min(size, len(live)))
                memory.delete_many(victims, seed=seed)
                disk.delete_many(victims, seed=seed)
            else:
                assert memory.compact(seed=seed, force=True) \
                    == disk.compact(seed=seed, force=True)
            _same_tree(memory, disk)


def _fingerprint(disk, queries, probes):
    """Answers and deterministic stats of every
    query and K-NN probe on ``disk``."""
    runs = [disk.subgraph_query(q) for q in queries] \
        + [disk.knn_query(g, 3) for g in probes]
    return [(answers, stats.deterministic_dict()) for answers, stats in runs]


def _records(disk):
    """The metadata of ``disk`` and every node and graph record its tree
    reaches, by record id."""
    records = {}
    for ref, node in disk.nodes():
        records[ref] = disk.store.load_record(ref)
        if node.is_leaf:
            for entry in node.children:
                records[entry.record] = disk.store.load_record(entry.record)
    return dict(disk._meta), records


@pytest.mark.parametrize("seed", SEEDS)
class TestWritersLeaveNoStaleNode:
    """Resident nodes hold what their records hold: no write batch —
    committed, or dead part-way — may leave a stale one behind, and a
    writer steered by them writes what a cold one writes."""

    def test_interleaving_on_one_handle_reads_like_a_fresh_one(
            self, tmp_path, seed):
        """A seeded interleaving of reads (which fill the resident set)
        and write batches on ONE handle; after every step it answers,
        counter for counter, like a handle just opened on the file, and
        after every batch the records equal those of a copy of the index
        on which each batch ran on a handle opened for it."""
        rng = random.Random(seed)
        base = generate_chemical_database(24, seed=seed, config=_CONFIG)
        pending = generate_chemical_database(60, seed=seed + 100,
                                             config=_CONFIG)
        queries = generate_subgraph_queries(base, 6, 4, seed=seed)
        probes = base[:2]
        path, cold = tmp_path / "one-handle.ctp", tmp_path / "cold.ctp"
        tree = bulk_load(base, min_fanout=2, max_fanout=4)
        DiskCTree.create(tree, cold, page_size=512, cache_pages=16).close()
        live = list(range(len(base)))
        done = set()
        with DiskCTree.create(tree, path, page_size=512,
                              cache_pages=16) as disk:
            for _ in range(30):
                step = rng.choice(
                    ("subgraph", "knn", "extend", "delete", "compact"))
                if step == "subgraph":
                    disk.subgraph_query(rng.choice(queries))
                elif step == "knn":
                    disk.knn_query(rng.choice(base), 3)
                else:
                    if step == "extend":
                        batch = [pending.pop()
                                 for _ in range(rng.randint(1, 4))]
                        write = lambda index: index.extend(batch, seed=seed)
                        live += write(disk)
                    elif step == "delete":
                        victims = rng.sample(live, rng.randint(1, 4))
                        write = lambda index: index.delete_many(victims,
                                                                seed=seed)
                        write(disk)
                        live = [gid for gid in live if gid not in victims]
                    else:
                        write = lambda index: index.compact(seed=seed,
                                                            force=True)
                        write(disk)
                    with DiskCTree.open(cold, cache_pages=16) as writer:
                        write(writer)
                        assert _records(disk) == _records(writer), step
                done.add(step)
                with DiskCTree.open_read_only(path, cache_pages=16) as fresh:
                    assert sorted(fresh.graph_ids()) == sorted(live)
                    assert _fingerprint(disk, queries, probes) \
                        == _fingerprint(fresh, queries, probes), step
        assert len(done) == 5

    def test_batch_decodes_only_the_nodes_it_changed(self, tmp_path, seed,
                                                     monkeypatch):
        """A write batch keeps the resident nodes it leaves alone: on a
        handle holding every node, an insert batch and a delete batch,
        each followed by a walk, decode at most one node record per
        record they write, allocate or free, and the walk hands back, for
        every node they did not touch, the object the walk before kept."""
        base = generate_chemical_database(24, seed=seed, config=_CONFIG)
        extra = generate_chemical_database(3, seed=seed + 100,
                                           config=_CONFIG)
        with DiskCTree.create(bulk_load(base, min_fanout=2, max_fanout=4),
                              tmp_path / "kept.ctp", page_size=512,
                              cache_pages=64) as disk:
            store, changed = disk.store, []

            def spy(method):
                def call(*args):
                    ref = method(*args)
                    changed.append(args[0] if ref is None else ref)
                    return ref
                return call

            for name in ("alloc_node", "write_node", "free_node"):
                monkeypatch.setattr(store, name, spy(getattr(store, name)))
            for write in (lambda: disk.extend(extra, seed=seed),
                          lambda: disk.delete_many([0, 7, 13], seed=seed,
                                                   auto_compact=False)):
                before = dict(disk.nodes())
                loads = store.node_loads
                del changed[:]
                write()
                after = dict(disk.nodes())
                assert store.node_loads - loads <= len(changed)
                kept = [ref for ref in after if ref not in changed]
                assert kept and all(after[ref] is before[ref]
                                    for ref in kept)

    def test_batch_dying_part_way_leaves_no_node_behind(self, tmp_path,
                                                        seed):
        """A write batch whose first page write kills the process (the
        pool is tiny, so it spills to the log mid-batch): the dead
        handle holds no resident node, and the recovered index answers
        as the generation committed before the batch."""
        base = generate_chemical_database(24, seed=seed, config=_CONFIG)
        batch = generate_chemical_database(8, seed=seed + 100,
                                           config=_CONFIG)
        queries = generate_subgraph_queries(base, 6, 4, seed=seed)
        path = tmp_path / "dying.ctp"
        DiskCTree.create(bulk_load(base, min_fanout=2, max_fanout=4), path,
                         page_size=512, cache_pages=4).close()
        injector = FaultInjector.counting()
        disk = DiskCTree.open(path, cache_pages=4, opener=injector.opener)
        committed = _fingerprint(disk, queries, base[:2])
        resident = global_registry().gauge("ctree.disk.nodes_resident")
        assert resident.value > 0
        injector.plan = FaultPlan(crash_at_op=injector.ops + 1, seed=seed)
        with pytest.raises(SimulatedCrash):
            disk.extend(batch)
        assert disk.generation == 1     # died before the group commit
        assert resident.value == 0
        with pytest.raises(SimulatedCrash):     # the process is dead:
            disk.subgraph_query(queries[0])     # nothing to read through
        assert DiskCTree.recover(path, deep=True).ok
        with DiskCTree.open(path, cache_pages=4) as recovered:
            assert recovered.generation == 1
            assert _fingerprint(recovered, queries, base[:2]) == committed


def _rewired(graph: Graph) -> Graph:
    """``graph`` with its first edge moved to a vertex pair it does not
    join: the same label histograms, so the histogram screen passes it
    wherever it passes ``graph``."""
    (u, v, label), *edges = graph.edges()
    w = next(x for x in graph.vertices()
             if x != u and not graph.has_edge(u, x))
    out = Graph([graph.label(x) for x in graph.vertices()])
    for a, b, edge_label in [(u, w, label), *edges]:
        out.add_edge(a, b, edge_label)
    return out


#: what Alg. 1's half of a resident leaf entry's memo may add to the
#: Alg. 2 half, per spine-sized molecule (tracemalloc): vertex keys and
#: profiles, the record's edge array and edge-label table.  Measured at
#: 1,380-1,397 B on Python 3.11; the pin leaves 29 % for other
#: interpreters.  The per-vertex adjacency dicts alone are ≈ 6 KB.
_ALG1_HALF_BYTES = 1800


def _dict_rows(obj) -> list:
    """The lists and tuples reachable from ``obj`` through lists, tuples
    and dicts that hold a dict: a per-vertex adjacency is one."""
    seen, stack, found = set(), [obj], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        for ref in gc.get_referents(obj):
            if isinstance(ref, (list, tuple)):
                if any(isinstance(x, dict) for x in ref):
                    found.append(ref)
                stack.append(ref)
            elif isinstance(ref, dict):
                stack.append(ref)
    return found


def _graph_records(disk) -> dict[int, int]:
    """Graph id -> the record id its leaf entry points at."""
    return {entry.graph_id: entry.record for _, node in disk.nodes()
            if node.is_leaf for entry in node.children}


class TestContextMemoLifetime:
    """A disk leaf entry memoises the context a subgraph query (Alg. 2's
    half) or an NBM-scored K-NN or range query (Alg. 1's) compiles from
    its graph record, both halves on one object, for as long as the
    entry's node stays resident: the memo answers a warm query, and
    never outlives the graph, the label space or the leaf it was
    compiled for."""

    @staticmethod
    def _counters(prefix="context"):
        registry = global_registry()
        return (registry.counter(f"ctree.disk.{prefix}_hits").value,
                registry.counter(f"ctree.disk.{prefix}_loads").value)

    def test_a_reused_record_slot_compiles_its_new_graph(self, tmp_path):
        """A verified graph is deleted and a different one with its
        label histograms takes its record slot: the query after tests the
        new graph, like a fresh handle and the reference matchers."""
        _, _, disk = _world(tmp_path, 11)
        extra = generate_chemical_database(1, seed=111, config=_CONFIG)
        query, other = extra[0], _rewired(extra[0])
        assert reference_scan([(0, other)], query) == []
        with disk:
            [victim] = disk.extend(extra, seed=11)
            record = _graph_records(disk)[victim]
            answers, _ = disk.subgraph_query(query)
            assert victim in answers
            hits, loads = self._counters()
            assert disk.subgraph_query(query)[0] == answers
            assert self._counters()[0] > hits
            assert self._counters()[1] == loads     # the memo answered
            disk.delete_many([victim], seed=11, auto_compact=False)
            [new] = disk.extend([other], seed=11)
            assert _graph_records(disk)[new] == record
            after, _ = disk.subgraph_query(query)
            assert new not in after
            assert after == reference_scan(stored_graphs(disk), query)
            disk.checkpoint()
            with DiskCTree.open_read_only(disk.path) as fresh:
                assert fresh.subgraph_query(query)[0] == after

    @pytest.mark.parametrize("seed", SEEDS)
    def test_a_new_label_space_recompiles(self, tmp_path, seed):
        """Contexts compiled against a replaced label space are stale:
        every graph a warm query tests is compiled again, and the
        answers do not change."""
        db, _, disk = _world(tmp_path, seed)
        queries = generate_subgraph_queries(db, 6, 4, seed=seed)
        with disk:
            _, loads = self._counters()
            answers = [disk.subgraph_query(q)[0] for q in queries]
            cold = self._counters()[1] - loads
            assert cold > 0
            assert [disk.subgraph_query(q)[0] for q in queries] == answers
            assert self._counters()[1] - loads == cold
            reset_labelspace()
            assert [disk.subgraph_query(q)[0] for q in queries] == answers
            assert self._counters()[1] - loads == 2 * cold

    @pytest.mark.parametrize("seed", SEEDS)
    def test_a_reused_record_slot_scores_its_new_graph(self, tmp_path,
                                                       seed):
        """A scored graph is deleted and a different one with its label
        histograms takes its record slot: the K-NN after scores the new
        graph as itself, like a fresh handle and the linear scan.  The
        record store puts a graph on its last page, not in the first
        free slot, so the first of a few candidate graphs whose rewiring
        lands in the slot its original freed is the one used."""
        for candidate in range(seed + 100, seed + 108):
            (tmp_path / str(candidate)).mkdir()
            _, _, disk = _world(tmp_path / str(candidate), seed)
            extra = generate_chemical_database(1, seed=candidate,
                                               config=_CONFIG)
            query, other = extra[0], _rewired(extra[0])
            [victim] = disk.extend(extra, seed=seed)
            record = _graph_records(disk)[victim]
            answers, _ = disk.knn_query(query, 3)
            assert answers[0][0] == victim
            hits, loads = self._counters("nbm_context")
            assert disk.knn_query(query, 3)[0] == answers
            assert self._counters("nbm_context")[0] > hits
            assert self._counters("nbm_context")[1] == loads   # memo hit
            disk.delete_many([victim], seed=seed, auto_compact=False)
            [new] = disk.extend([other], seed=seed)
            if _graph_records(disk)[new] == record:
                break
            disk.close()
        else:
            pytest.fail("no candidate graph took its original's slot")
        with disk:
            after, _ = disk.knn_query(query, 3)
            assert after == linear_scan_knn(dict(stored_graphs(disk)),
                                            query, 3)
            assert (new, answers[0][1]) not in after  # not the victim's
            disk.checkpoint()
            with DiskCTree.open_read_only(disk.path) as fresh:
                assert fresh.knn_query(query, 3)[0] == after

    @pytest.mark.parametrize("seed", SEEDS)
    def test_a_new_label_space_rescores(self, tmp_path, seed):
        """Alg. 1 halves compiled against a replaced label space are
        stale: every graph a warm K-NN or range query scores is compiled
        again, and the answers do not change."""
        db, _, disk = _world(tmp_path, seed)
        probes = [db[0], db[len(db) // 2]]

        def answers():
            return ([disk.knn_query(q, 4)[0] for q in probes]
                    + [range_query(disk, q, 10.0)[0] for q in probes])

        with disk:
            _, loads = self._counters("nbm_context")
            cold = answers()
            compiled = self._counters("nbm_context")[1] - loads
            assert compiled > 0
            assert cold[:2] == [linear_scan_knn(dict(enumerate(db)), q, 4)
                                for q in probes]
            assert answers() == cold
            assert self._counters("nbm_context")[1] - loads == compiled
            reset_labelspace()
            assert answers() == cold
            assert self._counters("nbm_context")[1] - loads == 2 * compiled

    @pytest.mark.parametrize("seed", SEEDS)
    def test_both_halves_share_one_context(self, tmp_path, seed):
        """One handle runs subgraph queries then K-NN, another K-NN then
        subgraph: each answers, with the same stats, as a fresh handle
        per query, and the entries both kinds read hold one context with
        both halves and no adjacency dict."""
        db, _, disk = _world(tmp_path, seed)
        disk.close()
        queries = generate_subgraph_queries(db, 6, 4, seed=seed)
        runs = ([("subgraph", q) for q in queries]
                + [("knn", q) for q in db[:3]])

        def run(handle, kind, q):
            answers, stats = handle.subgraph_query(q) if kind == "subgraph" \
                else handle.knn_query(q, 4)
            return answers, stats.deterministic_dict()

        expected = []
        for kind, q in runs:
            with DiskCTree.open_read_only(disk.path, cache_pages=16) as h:
                expected.append(run(h, kind, q))
        for order in (runs, runs[::-1]):
            with DiskCTree.open_read_only(disk.path, cache_pages=16) as h:
                got = [run(h, kind, q) for kind, q in order]
                assert got == [expected[runs.index(r)] for r in order]
                both = [entry.summary[1]
                        for leaf in h.store._resident[1].values()
                        for entry in leaf.children
                        if entry.summary is not None
                        and getattr(entry.summary[1], "vkeys", None)
                        and entry.summary[1].edge_rows is not None]
                assert both, "no entry was read by both kinds"
                assert all(ctx.adj is None for ctx in both)

    def test_alg1_half_is_compact(self, tmp_path):
        """Memory guard, in bytes, not seconds: on every entry of a
        handle holding the whole index, Alg. 1's half compiled after
        Alg. 2's adds at most ``_ALG1_HALF_BYTES`` per graph, and the
        context holding both halves keeps no per-vertex dict, in either
        order the halves came in."""
        db = generate_chemical_database(60, seed=7)
        path = tmp_path / "compact.ctp"
        DiskCTree.create(bulk_load(db, min_fanout=5), path,
                         cache_pages=64).close()
        with DiskCTree.open_read_only(path, cache_pages=64) as handle:
            store = handle.store
            entries = [entry for _, node in handle.nodes() if node.is_leaf
                       for entry in node.children]
            assert len(entries) == len(db)
            for entry in entries:   # the Alg. 2 half; interning warmed
                store.load_context(entry)
                decode_nbm_context(store.load_record(entry.record)).scoring()
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                for entry in entries:
                    store.load_nbm_context(entry)
                gc.collect()
                added = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
            assert 0 < added / len(entries) <= _ALG1_HALF_BYTES
            contexts = [entry.summary[1] for entry in entries]
        with DiskCTree.open_read_only(path, cache_pages=64) as handle:
            for _, node in handle.nodes():
                for entry in node.children if node.is_leaf else ():
                    handle.store.load_nbm_context(entry)
                    handle.store.load_context(entry)
                    contexts.append(entry.summary[1])
        for ctx in contexts:
            assert ctx.vkeys is not None and ctx.edge_rows is not None
            assert ctx.adj is None and _dict_rows(ctx) == []

    def test_no_context_outlives_its_leaf(self, tmp_path, monkeypatch):
        """The golden index through five node slots: its six leaves take
        turns in the two the internal nodes leave.  After every query the
        record-compiled contexts still alive are exactly those memoised
        on the entries of a resident leaf."""
        db = load_graph_database(_DATA / "golden_chem.jsonl")
        expected = json.loads((_DATA / "golden_answers.json").read_text())
        path = tmp_path / "golden.ctp"
        DiskCTree.create(bulk_load(db, min_fanout=3), path,
                         page_size=512).close()
        compiled = []   # (context id, weak reference that dies with it)
        decode = store_module.decode_graph_context

        class Memo(dict):
            """A context's ``_at_least`` memo that takes weak references
            (a ``TargetContext`` takes none): it dies with the context."""

        def spy(record):
            ctx = decode(record)
            ctx._at_least = Memo(ctx._at_least)
            compiled.append((id(ctx), weakref.ref(ctx._at_least)))
            return ctx

        monkeypatch.setattr(store_module, "decode_graph_context", spy)
        most = 0
        with DiskCTree.open_read_only(path, cache_pages=5) as handle:
            leaves = handle.store._resident[1]
            for _ in range(2):
                for case in expected["subgraph"]:
                    answers, _ = handle.subgraph_query(
                        Graph.from_dict(case["query"]))
                    assert answers == case["answers"]
                    gc.collect()
                    held = {id(entry.summary[1])
                            for leaf in leaves.values()
                            for entry in leaf.children
                            if entry.summary is not None and
                            isinstance(entry.summary[1], TargetContext)}
                    alive = {ctx for ctx, ref in compiled
                             if ref() is not None}
                    assert alive == held
                    most = max(most, len(held))
        assert most > 0, "no leaf kept a context"
        assert len(compiled) > most, "no leaf was evicted"
