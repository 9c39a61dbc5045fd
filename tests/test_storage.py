"""Unit tests for the disk storage substrate (page file, buffer pool,
record store)."""

import struct

import pytest

from repro.exceptions import PersistenceError
from repro.storage.bufferpool import BufferPool
from repro.storage.pagefile import PageFile
from repro.storage.recordstore import RecordStore
from repro.storage.wal import WriteAheadLog, wal_path


@pytest.fixture
def pagefile(tmp_path):
    pf = PageFile.create(tmp_path / "test.ctp", page_size=128)
    yield pf
    pf.close()


class TestPageFile:
    def test_create_and_reopen(self, tmp_path):
        path = tmp_path / "a.ctp"
        pf = PageFile.create(path, page_size=256)
        pid = pf.allocate()
        pf.write_page(pid, b"hello")
        pf.user_root = pid
        pf.close()

        pf2 = PageFile.open(path)
        assert pf2.page_size == 256
        assert pf2.user_root == pid
        assert pf2.read_page(pid).startswith(b"hello")
        pf2.close()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTAPAGE" + b"\0" * 100)
        with pytest.raises(PersistenceError):
            PageFile.open(path)

    def test_short_file_rejected(self, tmp_path):
        path = tmp_path / "tiny.bin"
        path.write_bytes(b"xx")
        with pytest.raises(PersistenceError):
            PageFile.open(path)

    def test_page_size_floor(self, tmp_path):
        with pytest.raises(PersistenceError):
            PageFile.create(tmp_path / "b.ctp", page_size=16)

    def test_allocate_monotone_then_recycled(self, pagefile):
        p1 = pagefile.allocate()
        p2 = pagefile.allocate()
        assert p2 == p1 + 1
        pagefile.free(p1)
        p3 = pagefile.allocate()
        assert p3 == p1  # recycled from the free list

    def test_free_list_chain(self, pagefile):
        pages = [pagefile.allocate() for _ in range(4)]
        for p in pages:
            pagefile.free(p)
        recycled = {pagefile.allocate() for _ in range(4)}
        assert recycled == set(pages)

    def test_write_too_large_rejected(self, pagefile):
        pid = pagefile.allocate()
        with pytest.raises(PersistenceError):
            pagefile.write_page(pid, b"x" * 129)

    def test_header_page_protected(self, pagefile):
        with pytest.raises(PersistenceError):
            pagefile.write_page(0, b"x")
        with pytest.raises(PersistenceError):
            pagefile.read_page(0)

    def test_out_of_range_read(self, pagefile):
        with pytest.raises(PersistenceError):
            pagefile.read_page(999)

    def test_closed_file_rejects_ops(self, tmp_path):
        pf = PageFile.create(tmp_path / "c.ctp", page_size=128)
        pf.close()
        with pytest.raises(PersistenceError):
            pf.allocate()

    def test_io_counters(self, pagefile):
        pid = pagefile.allocate()
        reads0 = pagefile.reads
        pagefile.read_page(pid)
        assert pagefile.reads == reads0 + 1

    def test_context_manager(self, tmp_path):
        with PageFile.create(tmp_path / "d.ctp", page_size=128) as pf:
            pf.allocate()
        with pytest.raises(PersistenceError):
            pf.allocate()


class TestBufferPool:
    def test_capacity_validated(self, pagefile):
        with pytest.raises(PersistenceError):
            BufferPool(pagefile, capacity=0)

    def test_hit_and_miss_counters(self, pagefile):
        pool = BufferPool(pagefile, capacity=4)
        pid = pool.allocate()
        pool.put(pid, b"data")
        assert pool.get(pid).startswith(b"data")
        assert pool.hits == 1 and pool.misses == 0
        pool.flush()
        pool2 = BufferPool(pagefile, capacity=4)
        pool2.get(pid)
        assert pool2.misses == 1

    def test_lru_eviction_writes_back(self, pagefile):
        pool = BufferPool(pagefile, capacity=2)
        pids = [pool.allocate() for _ in range(3)]
        for i, pid in enumerate(pids):
            pool.put(pid, f"page{i}".encode())
        assert pool.evictions >= 1
        assert pool.writebacks >= 1
        # The evicted page's data must survive on disk.
        assert pool.get(pids[0]).startswith(b"page0")

    def test_lru_order_respects_access(self, pagefile):
        pool = BufferPool(pagefile, capacity=2)
        a = pool.allocate()
        b = pool.allocate()
        c = pool.allocate()
        pool.put(a, b"A")
        pool.put(b, b"B")
        pool.get(a)          # a becomes most-recent
        pool.put(c, b"C")    # evicts b, not a
        misses0 = pool.misses
        pool.get(a)
        assert pool.misses == misses0  # still cached

    def test_flush_clears_dirty(self, pagefile):
        pool = BufferPool(pagefile, capacity=4)
        pid = pool.allocate()
        pool.put(pid, b"zz")
        pool.flush()
        writebacks = pool.writebacks
        pool.flush()
        assert pool.writebacks == writebacks  # nothing left dirty

    def test_oversized_put_rejected(self, pagefile):
        pool = BufferPool(pagefile, capacity=2)
        pid = pool.allocate()
        with pytest.raises(PersistenceError):
            pool.put(pid, b"x" * 129)

    def test_hit_ratio(self, pagefile):
        pool = BufferPool(pagefile, capacity=2)
        assert pool.hit_ratio == 0.0
        pid = pool.allocate()
        pool.put(pid, b"y")
        pool.get(pid)
        assert pool.hit_ratio == 1.0

    def test_hit_ratio_zero_access_edge_cases(self, pagefile):
        pool = BufferPool(pagefile, capacity=2)
        # No accesses at all: defined as 0.0, not a ZeroDivisionError.
        assert pool.hit_ratio == 0.0
        pid = pool.allocate()
        pool.put(pid, b"y")  # put is not an access
        assert pool.hit_ratio == 0.0

    def test_registry_counters_mirror_pool(self, pagefile):
        from repro.obs.metrics import MetricsRegistry

        reg = MetricsRegistry()
        pool = BufferPool(pagefile, capacity=2, registry=reg)
        pid = pool.allocate()
        pool.put(pid, b"y")
        pool.get(pid)          # hit
        pool2 = BufferPool(pagefile, capacity=2, registry=reg)
        pool2.get(pid)         # miss (fresh pool, same registry)
        assert reg.counter("bufferpool.hits").value == 1
        assert reg.counter("bufferpool.misses").value == 1

    def test_default_registry_is_global(self, pagefile):
        from repro.obs.metrics import global_registry

        pool = BufferPool(pagefile, capacity=2)
        assert pool.registry is global_registry()
        before = global_registry().counter("bufferpool.misses").value
        pid = pool.allocate()
        pool.put(pid, b"y")
        pool.flush()
        pool2 = BufferPool(pagefile, capacity=2)
        pool2.get(pid)
        assert global_registry().counter("bufferpool.misses").value \
            == before + 1


class TestWALModePool:
    @pytest.fixture
    def logged(self, tmp_path):
        path = tmp_path / "logged.ctp"
        pf = PageFile.create(path, page_size=128)
        wal = WriteAheadLog.create(wal_path(path), 128,
                                   start_lsn=pf.last_lsn + 1)
        pool = BufferPool(pf, capacity=2, wal=wal)
        yield path, pf, pool
        if not pf._closed:
            pool.close()

    def test_eviction_spills_to_wal_not_main_file(self, logged):
        path, pf, pool = logged
        pids = [pool.allocate() for _ in range(4)]
        for i, pid in enumerate(pids):
            pool.put(pid, f"v{i}".encode())
        assert not pool.wal.empty  # spills landed in the log
        # ... and reads come back from the log, transparently.
        for i, pid in enumerate(pids):
            assert pool.get(pid).startswith(f"v{i}".encode())

    def test_checkpoint_empties_wal(self, logged):
        path, pf, pool = logged
        pids = [pool.allocate() for _ in range(4)]
        for pid in pids:
            pool.put(pid, b"data")
        pool.flush()
        assert pool.wal.empty
        # After the checkpoint the main file alone holds everything.
        pf2 = PageFile.open(path)
        for pid in pids:
            assert pf2.read_page(pid).startswith(b"data")
        pf2.close()

    def test_noop_checkpoint_skipped(self, logged):
        path, pf, pool = logged
        pid = pool.allocate()
        pool.put(pid, b"x")
        pool.flush()
        commits0 = pool.wal._c_commits.value
        pool.flush()  # nothing dirty: no new commit
        assert pool.wal._c_commits.value == commits0

    def test_free_and_reuse_through_pool(self, logged):
        path, pf, pool = logged
        store = RecordStore(pool)
        rid = store.store(b"z" * 500)
        pool.flush()
        pages_before = pf.page_count
        store.delete(rid)
        rid2 = store.store(b"y" * 500)
        assert pf.page_count == pages_before  # recycled, not extended
        pool.flush()
        assert store.load(rid2) == b"y" * 500


class TestLatentBugRegressions:
    """Minimal reproducers for bugs the fault sweep surfaced in the seed
    storage layer."""

    def test_write_page_beyond_page_count_rejected(self, pagefile):
        # Seed accepted writes past the allocated region, silently
        # growing the file outside the allocator's bookkeeping.
        pid = pagefile.allocate()
        with pytest.raises(PersistenceError):
            pagefile.write_page(pid + 1, b"ghost")

    def test_put_unallocated_page_rejected(self, pagefile):
        # Seed cached pages for ids the file never allocated; eviction
        # then wrote them to arbitrary offsets.
        pool = BufferPool(pagefile, capacity=2)
        with pytest.raises(PersistenceError):
            pool.put(999, b"ghost")

    def test_double_free_rejected(self, pagefile):
        # A double free used to link the page to itself, turning the
        # free list into a cycle that hung the next allocation.
        pid = pagefile.allocate()
        pagefile.free(pid)
        with pytest.raises(PersistenceError):
            pagefile.free(pid)

    def test_double_free_rejected_through_pool_wal_mode(self, tmp_path):
        path = tmp_path / "df.ctp"
        pf = PageFile.create(path, page_size=128)
        wal = WriteAheadLog.create(wal_path(path), 128)
        pool = BufferPool(pf, capacity=2, wal=wal)
        pid = pool.allocate()
        pool.free(pid)
        with pytest.raises(PersistenceError):
            pool.free(pid)
        pool.close()


class TestRecordStore:
    @pytest.fixture
    def store(self, pagefile):
        return RecordStore(BufferPool(pagefile, capacity=8))

    def test_roundtrip_small(self, store):
        rid = store.store(b"hello world")
        assert store.load(rid) == b"hello world"

    def test_roundtrip_empty(self, store):
        rid = store.store(b"")
        assert store.load(rid) == b""

    def test_roundtrip_multi_page(self, store):
        data = bytes(range(256)) * 10  # 2560 bytes >> 128-byte pages
        rid = store.store(data)
        assert store.load(rid) == data

    def test_many_records_independent(self, store):
        payloads = [f"record-{i}".encode() * (i + 1) for i in range(20)]
        rids = [store.store(p) for p in payloads]
        for rid, payload in zip(rids, payloads):
            assert store.load(rid) == payload

    def test_delete_recycles_pages(self, store):
        data = b"z" * 1000
        rid = store.store(data)
        pages_before = store.pool.pagefile.page_count
        store.delete(rid)
        rid2 = store.store(data)
        assert store.pool.pagefile.page_count == pages_before
        assert store.load(rid2) == data

    def test_persistence_across_reopen(self, tmp_path):
        path = tmp_path / "records.ctp"
        pf = PageFile.create(path, page_size=128)
        store = RecordStore(BufferPool(pf, capacity=4))
        rid = store.store(b"durable" * 50)
        pf.user_root = rid
        store.pool.close()

        pf2 = PageFile.open(path)
        store2 = RecordStore(BufferPool(pf2, capacity=4))
        assert store2.load(pf2.user_root) == b"durable" * 50
        store2.pool.close()

    def test_records_share_a_page_and_an_overflow_keeps_its_slot(
            self, store):
        small = [store.store(b"a" * 20), store.store(b"b" * 20)]
        assert [rid >> 16 for rid in small] == [small[0] >> 16] * 2
        assert small[1] == small[0] + 1
        big = store.store(b"c" * 300)   # 128-byte pages: an overflow chain
        assert big >> 16 == small[0] >> 16
        assert len(store.chain_pages(big)) == 1 + 3
        assert store.update(big, b"d" * 10) == big
        assert store.chain_pages(big) == [big >> 16]
        assert store.delete(small[0]) == 0   # the page keeps live slots
        assert store.delete(small[1]) == 0
        assert store.delete(big) == 1        # its last slot: page freed

    def test_huge_page_size_rejected(self, tmp_path):
        pf = PageFile.create(tmp_path / "big.ctp", page_size=1 << 17)
        with pytest.raises(PersistenceError):
            RecordStore(BufferPool(pf, capacity=2))
        pf.close()


#: a record page's header ``<link: u64><count: u16><unused: u16><tag>``
#: and its slot i, ``<offset: u16><length: u16>`` at 16 + 4 i
_COUNT_AT, _SLOT_AT = 8, 16


class TestRecordPageDamage:
    """Damage planted in a record page is a ``PersistenceError`` that
    names the page and slot, or a :meth:`RecordStore.page_findings`
    line — never a wrong record."""

    @pytest.fixture
    def store(self, pagefile):
        return RecordStore(BufferPool(pagefile, capacity=8))

    @staticmethod
    def _patch(store, page, at, fmt, *values):
        data = bytearray(store.pool.get(page).ljust(128, b"\0"))
        struct.pack_into(fmt, data, at, *values)
        store.pool.put(page, bytes(data))

    def test_free_and_missing_slots(self, store):
        first, second = store.store(b"a" * 10), store.store(b"b" * 10)
        page = first >> 16
        store.delete(first)
        for call in (store.load, store.chain_pages, store.delete,
                     lambda rid: store.update(rid, b"x")):
            with pytest.raises(PersistenceError,
                               match=f"slot 0 of page {page} is free"):
                call(first)
        with pytest.raises(PersistenceError,
                           match=f"page {page} has no slot 7"):
            store.load(second + 6)

    def test_not_a_record_page(self, store):
        overflow = store.chain_pages(store.store(b"o" * 300))[1]
        with pytest.raises(PersistenceError,
                           match=f"page {overflow} is not a record page"):
            store.load(overflow << 16)
        assert store.page_findings(overflow, set()) == [
            f"page {overflow} is not a record page"]

    def test_slot_past_the_page_and_bad_stub(self, store):
        record = store.store(b"a" * 10)
        page = record >> 16
        self._patch(store, page, _SLOT_AT, "<HH", 120, 10)
        with pytest.raises(PersistenceError,
                           match=f"slot 0 runs past the end of page {page}"):
            store.load(record)
        self._patch(store, page, _SLOT_AT, "<HH", 20, 0x8000 | 5)
        with pytest.raises(PersistenceError,
                           match=f"overflow slot 0 of page {page} holds 5"):
            store.load(record)

    def test_directory_overrunning_the_page(self, store):
        record = store.store(b"a" * 10)
        page = record >> 16
        self._patch(store, page, _COUNT_AT, "<H", 40)
        assert store.page_findings(page, {record}) == [
            f"page {page}: 40 slots overrun the page"]
        with pytest.raises(PersistenceError, match="overrun"):
            store.update(record, b"b")

    def test_broken_overflow_chains(self, store):
        record = store.store(b"c" * 300)
        home, head, tail = store.chain_pages(record)[:3]
        self._patch(store, head, 0, "<Q", head)
        with pytest.raises(PersistenceError,
                           match=f"overflow chain: page {head} repeats"):
            store.load(record)
        self._patch(store, head, 0, "<Q", home)
        with pytest.raises(PersistenceError,
                           match=f"page {home} is not an overflow page"):
            store.load(record)
        self._patch(store, head, 0, "<QH", tail, 1000)
        with pytest.raises(PersistenceError, match="exceeds capacity"):
            store.load(record)

    def test_page_findings(self, store):
        records = [store.store(p) for p in (b"a" * 10, b"b" * 10, b"c" * 10)]
        page = records[0] >> 16
        assert store.page_findings(page, set(records)) == []
        assert store.page_findings(page, set(records[1:])) == [
            f"page {page}: slot 0 holds a record no index entry reaches "
            f"(leaked)"]
        offset, _ = struct.unpack_from("<HH", store.pool.get(page), _SLOT_AT)
        self._patch(store, page, _SLOT_AT + 4, "<H", offset + 1)
        self._patch(store, page, _SLOT_AT + 8, "<H", _SLOT_AT)
        assert store.page_findings(page, set(records)) == [
            f"page {page}: the bytes of slot 2 overlap the slot directory",
            f"page {page}: the bytes of slot 1 overlap those of slot 0"]
