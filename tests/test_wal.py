"""Unit tests for the write-ahead log and storage-level recovery."""

import pytest

from repro.exceptions import ChecksumError, PersistenceError, WALError
from repro.storage.bufferpool import BufferPool
from repro.storage.pagefile import PageFile
from repro.storage.recordstore import RecordStore
from repro.storage.wal import (
    REC_COMMIT,
    REC_PAGE,
    WriteAheadLog,
    needs_recovery,
    recover,
    wal_path,
)


@pytest.fixture
def wal(tmp_path):
    w = WriteAheadLog.create(tmp_path / "x.ctp.wal", page_size=128)
    yield w
    w.close()


class TestWALBasics:
    def test_create_then_open(self, tmp_path):
        path = tmp_path / "a.wal"
        w = WriteAheadLog.create(path, page_size=256)
        lsn, offset = w.append_page(3, b"payload")
        w.commit()
        w.close()

        w2 = WriteAheadLog.open(path)
        assert w2.page_size == 256
        recs = list(w2.records())
        assert [r.kind for r in recs] == [REC_PAGE, REC_COMMIT]
        assert recs[0].page_id == 3
        assert recs[0].payload == b"payload"
        assert w2.next_lsn == recs[-1].lsn + 1
        w2.close()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.wal"
        path.write_bytes(b"NOTAWAL!" + b"\0" * 8)
        with pytest.raises(WALError):
            WriteAheadLog.open(path)

    def test_short_header_rejected(self, tmp_path):
        path = tmp_path / "tiny.wal"
        path.write_bytes(b"xx")
        with pytest.raises(WALError):
            WriteAheadLog.open(path)

    def test_lsns_strictly_monotonic(self, wal):
        lsns = []
        for i in range(5):
            lsn, _ = wal.append_page(1, bytes([i]))
            lsns.append(lsn)
        lsns.append(wal.append_header(2, 0, 1))
        lsns.append(wal.commit())
        assert lsns == sorted(set(lsns))
        assert wal.last_lsn == lsns[-1]

    def test_read_page_at(self, wal):
        _, off_a = wal.append_page(1, b"aaa")
        _, off_b = wal.append_page(2, b"bbb")
        assert wal.read_page_at(off_a) == b"aaa"
        assert wal.read_page_at(off_b) == b"bbb"

    def test_read_page_at_bad_offset(self, wal):
        wal.append_page(1, b"aaa")
        with pytest.raises(WALError):
            wal.read_page_at(3)  # mid-record garbage

    def test_oversized_page_rejected(self, wal):
        with pytest.raises(WALError):
            wal.append_page(1, b"x" * 129)

    def test_truncate_drops_records_keeps_lsn(self, wal):
        wal.append_page(1, b"zz")
        lsn = wal.commit()
        wal.truncate()
        assert wal.empty
        assert list(wal.records()) == []
        # LSNs never reset: later records must still sort after old ones.
        newer, _ = wal.append_page(1, b"yy")
        assert newer > lsn

    def test_open_or_create_page_size_mismatch(self, tmp_path):
        path = tmp_path / "m.wal"
        WriteAheadLog.create(path, page_size=128).close()
        with pytest.raises(WALError):
            WriteAheadLog.open_or_create(path, page_size=256)

    def test_closed_log_rejects_appends(self, tmp_path):
        w = WriteAheadLog.create(tmp_path / "c.wal", page_size=128)
        w.close()
        with pytest.raises(WALError):
            w.append_page(1, b"x")


class TestTornTail:
    def test_torn_record_is_invisible(self, tmp_path):
        path = tmp_path / "t.wal"
        w = WriteAheadLog.create(path, page_size=128)
        w.append_page(1, b"first")
        w.append_page(2, b"second")
        w.close()

        # Tear the last record: chop some of its payload off.
        data = path.read_bytes()
        path.write_bytes(data[:-3])

        w2 = WriteAheadLog.open(path)
        recs = list(w2.records())
        assert [r.page_id for r in recs] == [1]
        w2.close()

    def test_corrupt_crc_stops_scan(self, tmp_path):
        path = tmp_path / "c.wal"
        w = WriteAheadLog.create(path, page_size=128)
        _, off = w.append_page(1, b"first")
        w.append_page(2, b"second")
        w.close()

        data = bytearray(path.read_bytes())
        data[off + 27] ^= 0xFF  # flip a payload byte of the first record
        path.write_bytes(bytes(data))

        w2 = WriteAheadLog.open(path)
        # The scan cannot trust anything at or after the corruption.
        assert list(w2.records()) == []
        w2.close()

    def test_append_overwrites_torn_tail(self, tmp_path):
        path = tmp_path / "o.wal"
        w = WriteAheadLog.create(path, page_size=128)
        w.append_page(1, b"keep")
        w.append_page(2, b"torn")
        w.close()
        data = path.read_bytes()
        path.write_bytes(data[:-2])

        w2 = WriteAheadLog.open(path)
        w2.append_page(3, b"new")
        recs = list(w2.records())
        assert [r.page_id for r in recs] == [1, 3]
        w2.close()


class TestRecover:
    def _fresh(self, tmp_path, page_size=128, capacity=4):
        path = tmp_path / "r.ctp"
        pf = PageFile.create(path, page_size=page_size)
        wal = WriteAheadLog.create(wal_path(path), page_size,
                                   start_lsn=pf.last_lsn + 1)
        pool = BufferPool(pf, capacity=capacity, wal=wal)
        return path, pf, pool

    def test_clean_index_is_noop(self, tmp_path):
        path, pf, pool = self._fresh(tmp_path)
        store = RecordStore(pool)
        rid = store.store(b"hello")
        pf.user_root = rid
        pool.close()

        assert not needs_recovery(path)
        report = recover(path)
        assert report.action == "none"
        assert report.initialized

    def test_uncommitted_tail_discarded(self, tmp_path):
        path, pf, pool = self._fresh(tmp_path, capacity=2)
        store = RecordStore(pool)
        rid = store.store(b"committed")
        pf.user_root = rid
        pool.flush()  # commit point
        # More work, spilled to the WAL but never committed.
        store.store(b"x" * 600)
        for pid, (data, dirty) in list(pool._pages.items()):
            if dirty:
                pool._wal_images[pid] = pool.wal.append_page(pid, data)
        assert needs_recovery(path)

        report = recover(path)
        assert report.action == "discarded"
        assert report.discarded_records > 0
        assert not needs_recovery(path)

        pf2 = PageFile.open(path)
        store2 = RecordStore(BufferPool(pf2, capacity=4))
        assert store2.load(pf2.user_root) == b"committed"
        pf2.close()

    def test_committed_wal_replayed(self, tmp_path):
        path, pf, pool = self._fresh(tmp_path, capacity=2)
        store = RecordStore(pool)
        rid = store.store(b"payload-one")
        pf.user_root = rid
        # Build the commit by hand: log dirty pages + header + COMMIT,
        # then "crash" before the transfer into the page file.
        wal = pool.wal
        for pid, (data, dirty) in list(pool._pages.items()):
            if dirty:
                wal.append_page(pid, data)
        wal.append_header(*pf.header_state())
        wal.commit()

        report = recover(path)
        assert report.action == "replayed"
        assert report.replayed_pages > 0
        assert report.header_restored

        pf2 = PageFile.open(path)
        store2 = RecordStore(BufferPool(pf2, capacity=4))
        assert store2.load(pf2.user_root) == b"payload-one"
        pf2.close()

    def test_recover_idempotent(self, tmp_path):
        path, pf, pool = self._fresh(tmp_path)
        store = RecordStore(pool)
        pf.user_root = store.store(b"abc")
        pool.close()
        recover(path)
        report = recover(path)
        assert report.action == "none"

    def test_commit_without_header_rejected(self, tmp_path):
        path, pf, pool = self._fresh(tmp_path)
        pool.wal.append_page(1, b"img")
        pool.wal.commit()
        with pytest.raises(WALError):
            recover(path)

    def test_needs_recovery_missing_file(self, tmp_path):
        assert not needs_recovery(tmp_path / "never-existed.ctp")


class TestChecksums:
    def test_torn_page_detected(self, tmp_path):
        path = tmp_path / "p.ctp"
        pf = PageFile.create(path, page_size=128)
        pid = pf.allocate()
        pf.write_page(pid, b"important")
        pf.close()

        data = bytearray(path.read_bytes())
        data[pid * (128 + 12) + 2] ^= 0xFF  # corrupt the payload
        path.write_bytes(bytes(data))

        pf2 = PageFile.open(path)
        with pytest.raises(ChecksumError):
            pf2.read_page(pid)
        # verify=False still returns the raw (corrupt) bytes.
        assert pf2.read_page(pid, verify=False)
        pf2.close()

    def test_corrupt_header_detected(self, tmp_path):
        path = tmp_path / "h.ctp"
        PageFile.create(path, page_size=128).close()
        data = bytearray(path.read_bytes())
        data[12] ^= 0xFF  # inside the header, after the magic
        path.write_bytes(bytes(data))
        with pytest.raises(PersistenceError):
            PageFile.open(path)

    def test_v1_format_rejected_with_hint(self, tmp_path):
        path = tmp_path / "old.ctp"
        PageFile.create(path, page_size=128).close()
        data = bytearray(path.read_bytes())
        data[0:8] = b"CTPF0001"
        path.write_bytes(bytes(data))
        with pytest.raises(PersistenceError, match="rebuild"):
            PageFile.open(path)
