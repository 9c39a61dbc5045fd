"""Property-based tests for the storage substrate and wildcard soundness."""

import random
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ctree.bulkload import bulk_load
from repro.ctree.diskindex import DiskCTree
from repro.datasets.chemical import generate_chemical_database
from repro.graphs.closure import WILDCARD
from repro.graphs.graph import Graph
from repro.matching.pseudo_iso import pseudo_subgraph_isomorphic
from repro.matching.ullmann import subgraph_isomorphic
from repro.storage.bufferpool import BufferPool
from repro.storage.pagefile import NO_PAGE, PageFile
from repro.storage.recordstore import RecordStore
from repro.storage.wal import WriteAheadLog, recover, wal_path


class TestRecordStoreProperties:
    @given(
        st.lists(st.binary(max_size=700), min_size=1, max_size=25),
        st.integers(1, 8),
    )
    @settings(max_examples=30, deadline=None)
    def test_store_load_roundtrip_any_cache_size(self, payloads, capacity):
        import tempfile
        from pathlib import Path

        with tempfile.TemporaryDirectory() as tmp:
            pf = PageFile.create(Path(tmp) / "f.ctp", page_size=128)
            store = RecordStore(BufferPool(pf, capacity=capacity))
            rids = [store.store(p) for p in payloads]
            for rid, payload in zip(rids, payloads):
                assert store.load(rid) == payload
            store.pool.close()

    @given(st.lists(
        st.tuples(st.booleans(), st.binary(max_size=300)),
        min_size=1, max_size=30,
    ))
    @settings(max_examples=25, deadline=None)
    def test_interleaved_store_delete(self, operations):
        import tempfile
        from pathlib import Path

        with tempfile.TemporaryDirectory() as tmp:
            pf = PageFile.create(Path(tmp) / "f.ctp", page_size=128)
            store = RecordStore(BufferPool(pf, capacity=4))
            live: dict[int, bytes] = {}
            for is_delete, payload in operations:
                if is_delete and live:
                    rid = next(iter(live))
                    store.delete(rid)
                    del live[rid]
                else:
                    live[store.store(payload)] = payload
            for rid, payload in live.items():
                assert store.load(rid) == payload
            store.pool.close()


_POOL_OPS = st.lists(
    st.tuples(
        st.integers(0, 3),          # op selector
        st.integers(0, 1_000_000),  # page chooser
        st.binary(max_size=100),    # payload
    ),
    max_size=50,
)


def _run_pool_model(ops, capacity, use_wal):
    """Drive a BufferPool with an arbitrary op sequence against a plain
    dict model, checking the eviction invariant throughout and the
    durable contents at the end."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.ctp"
        pf = PageFile.create(path, page_size=128)
        wal = WriteAheadLog.create(wal_path(path), 128,
                                   start_lsn=pf.last_lsn + 1) \
            if use_wal else None
        pool = BufferPool(pf, capacity=capacity, wal=wal)
        model: dict[int, bytes] = {}

        for op, chooser, payload in ops:
            pids = sorted(model)
            if op == 0 or not pids:  # allocate + write
                pid = pool.allocate()
                pool.put(pid, payload)
                model[pid] = payload
            elif op == 1:  # read
                pid = pids[chooser % len(pids)]
                got = pool.get(pid)
                assert got[:len(model[pid])] == model[pid]
                assert got[len(model[pid]):] in (b"", b"\0" * (128 - len(model[pid])))
            elif op == 2:  # overwrite
                pid = pids[chooser % len(pids)]
                pool.put(pid, payload)
                model[pid] = payload
            elif op == 3:  # flush / checkpoint
                pool.flush()
            assert len(pool._pages) <= capacity

        pool.close()

        # Everything survives a cold reopen.
        pf2 = PageFile.open(path)
        pool2 = BufferPool(pf2, capacity=capacity)
        for pid, payload in model.items():
            assert pool2.get(pid)[:len(payload)] == payload
        pf2.close()


class TestBufferPoolModel:
    @given(_POOL_OPS, st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_direct_mode_matches_model(self, ops, capacity):
        _run_pool_model(ops, capacity, use_wal=False)

    @given(_POOL_OPS, st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_wal_mode_matches_model(self, ops, capacity):
        _run_pool_model(ops, capacity, use_wal=True)


class TestRecordStoreWALModel:
    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 1_000_000),
                      st.binary(max_size=400)),
            min_size=1, max_size=40,
        ),
        st.integers(1, 6),
    )
    @settings(max_examples=25, deadline=None)
    def test_store_delete_checkpoint_roundtrip(self, ops, capacity):
        """Interleaved store/delete/checkpoint in WAL mode: live records
        always load back exactly, across spills, free-list reuse,
        recovery, and a cold reopen."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "r.ctp"
            pf = PageFile.create(path, page_size=128)
            wal = WriteAheadLog.create(wal_path(path), 128,
                                       start_lsn=pf.last_lsn + 1)
            pool = BufferPool(pf, capacity=capacity, wal=wal)
            store = RecordStore(pool)
            live: dict[int, bytes] = {}
            for op, chooser, payload in ops:
                rids = sorted(live)
                if op in (0, 1) or not rids:  # store (weighted 2x)
                    live[store.store(payload)] = payload
                elif op == 2:  # delete
                    rid = rids[chooser % len(rids)]
                    store.delete(rid)
                    del live[rid]
                else:  # checkpoint
                    pool.flush()
            for rid, payload in live.items():
                assert store.load(rid) == payload
            pool.close()

            # recover() on the cleanly closed file must be a no-op, and
            # the cold reopen must agree with the model.
            report = recover(path)
            assert report.action == "none"
            pf2 = PageFile.open(path)
            store2 = RecordStore(BufferPool(pf2, capacity=4))
            for rid, payload in live.items():
                assert store2.load(rid) == payload
            pf2.close()

    @given(st.lists(st.binary(min_size=1, max_size=500),
                    min_size=1, max_size=12))
    @settings(max_examples=25, deadline=None)
    def test_free_then_store_reuses_pages(self, payloads):
        """Deleting everything and re-storing the same payloads must not
        grow the file: freed pages are recycled exactly."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "f.ctp"
            pf = PageFile.create(path, page_size=128)
            wal = WriteAheadLog.create(wal_path(path), 128,
                                       start_lsn=pf.last_lsn + 1)
            pool = BufferPool(pf, capacity=3, wal=wal)
            store = RecordStore(pool)
            rids = [store.store(p) for p in payloads]
            pool.flush()
            pages_after_first = pf.page_count
            for rid in rids:
                store.delete(rid)
            rids2 = [store.store(p) for p in payloads]
            assert pf.page_count == pages_after_first
            pool.flush()
            for rid, payload in zip(rids2, payloads):
                assert store.load(rid) == payload
            pool.close()


_BYTES = bytes(range(256))


def _payload(step: int, size: int) -> bytes:
    """``size`` bytes that differ from step to step and within a record."""
    start = step % 256
    return (_BYTES * (size // 256 + 2))[start:start + size]


def _assert_tiled(store: RecordStore, live: dict[int, bytes]) -> None:
    """Every live record reads back, and the pages live records occupy
    plus the free list's pages are every data page, each once."""
    reachable: set[int] = set()
    for record_id, data in live.items():
        assert store.load(record_id) == data
        reachable.update(store.chain_pages(record_id))
    free: list[int] = []
    head = store.pool.pagefile.free_head
    while head != NO_PAGE:
        free.append(head)
        head = int.from_bytes(store.pool.get(head)[:8], "little")
    assert len(free) == len(set(free))
    assert reachable.isdisjoint(free)
    assert reachable | set(free) == \
        set(range(1, store.pool.pagefile.page_count))


class TestSlottedRecordModel:
    """Record format 4 against a dict: records of 0 bytes to three pages,
    packed into slotted pages with overflow chains."""

    @given(st.sampled_from((144, 512, 4096)), st.booleans(),
           st.lists(st.tuples(st.integers(0, 3), st.integers(0, 1 << 20),
                              st.floats(0, 3)),
                    min_size=1, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_store_update_delete_against_a_dict(self, page_size, use_wal,
                                                ops):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "slots.ctp"
            pf = PageFile.create(path, page_size=page_size)
            wal = WriteAheadLog.create(wal_path(path), page_size,
                                       start_lsn=pf.last_lsn + 1) \
                if use_wal else None
            store = RecordStore(BufferPool(pf, capacity=3, wal=wal))
            live: dict[int, bytes] = {}
            for step, (op, chooser, pages) in enumerate(ops):
                data = _payload(step, int(pages * page_size))
                ids = sorted(live)
                if op == 0 or not ids:
                    record_id = store.store(data)
                    assert record_id not in live
                    live[record_id] = data
                elif op == 1:
                    record_id = ids[chooser % len(ids)]
                    assert store.update(record_id, data) == record_id
                    live[record_id] = data
                elif op == 2:
                    record_id = ids[chooser % len(ids)]
                    store.delete(record_id)
                    del live[record_id]
                else:
                    store.flush()
                _assert_tiled(store, live)
            store.pool.close()
            cold = RecordStore(BufferPool(PageFile.open(path), capacity=3))
            _assert_tiled(cold, live)
            cold.pool.close()

    def test_spine_index_packs_its_graphs(self, tmp_path):
        """The spine benchmark's index (300 graphs, 4,096-byte pages):
        330 pages at one record per page, ≈ 50 slotted."""
        tree = bulk_load(generate_chemical_database(300, seed=7),
                         min_fanout=10, seed=7)
        with DiskCTree.create(tree, tmp_path / "spine.ctp") as disk:
            assert disk.pool.pagefile.page_count <= 100


class TestWildcardSoundness:
    @given(st.integers(0, 2**16), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_wildcarding_never_loses_answers(self, seed, num_wildcards):
        """Replacing query labels with wildcards can only *add* matches."""
        rng = random.Random(seed)
        n_target = rng.randint(2, 8)
        target = Graph([rng.choice("AB") for _ in range(n_target)])
        for v in range(1, n_target):
            target.add_edge(rng.randrange(v), v)
        n_query = rng.randint(1, 4)
        query = Graph([rng.choice("AB") for _ in range(n_query)])
        for v in range(1, n_query):
            query.add_edge(rng.randrange(v), v)

        labels = [query.label(v) for v in range(n_query)]
        for _ in range(num_wildcards):
            labels[rng.randrange(n_query)] = WILDCARD
        wild = Graph(labels, list(query.edges()))

        if subgraph_isomorphic(query, target):
            assert subgraph_isomorphic(wild, target)
            for level in (0, 1, "max"):
                assert pseudo_subgraph_isomorphic(wild, target, level)

    @given(st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_pseudo_iso_sound_for_wildcard_queries(self, seed):
        """Lemma 1 still holds with wildcards: exact match => pseudo match."""
        rng = random.Random(seed)
        n = rng.randint(2, 7)
        target = Graph([rng.choice("ABC") for _ in range(n)])
        for v in range(1, n):
            target.add_edge(rng.randrange(v), v)
        k = rng.randint(1, min(3, n))
        labels = [
            WILDCARD if rng.random() < 0.4 else rng.choice("ABC")
            for _ in range(k)
        ]
        query = Graph(labels)
        for v in range(1, k):
            query.add_edge(rng.randrange(v), v)
        if subgraph_isomorphic(query, target):
            assert pseudo_subgraph_isomorphic(query, target, "max")
