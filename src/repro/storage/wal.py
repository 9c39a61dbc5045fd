"""Page-level write-ahead log for the disk-backed C-tree.

The durability protocol is redo-only with **no steal to the main file**:
between checkpoints the page file's committed region is never modified —
dirty pages spilled by the buffer pool go into this log, and the latest
image of each such page is read back from the log on demand.  A
checkpoint then (1) appends the remaining dirty images plus a header
record, (2) appends a COMMIT record and fsyncs — the commit point —
(3) transfers the latest images into the page file, fsyncs it, and
(4) truncates the log.  A crash at any step leaves either the previous
committed state (log tail discarded) or enough committed log records to
reconstruct the new one (:func:`recover`).

Log layout::

    header:  magic "CTWL0001" + page_size (u64)        — 16 bytes
    record:  <crc32 u32><kind u8><lsn u64><page_id u64><length u32><payload>

``crc32`` covers everything after itself, so a torn tail is detected and
discarded.  Record kinds: ``PAGE`` (full after-image), ``HEADER`` (the
page file's ``(page_count, free_head, user_root)``), ``COMMIT`` (payload:
an optional diagnostic note naming the logical operation — recovery keys
on the kind alone, so old and new logs replay identically).

All appends, commits, truncations and recoveries are counted in the
process-wide metrics registry under ``wal.*`` / ``recovery.*``.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional

from repro.exceptions import PersistenceError, WALError
from repro.obs.metrics import global_registry
from repro.storage.pagefile import (
    Opener,
    PageFile,
    PathLike,
    default_opener,
)

_WAL_MAGIC = b"CTWL0001"
_WAL_HEADER = struct.Struct("<8sQ")  # magic, page_size
_REC = struct.Struct("<IBQQI")  # crc32, kind, lsn, page_id, length
_HEADER_PAYLOAD = struct.Struct("<QQQ")  # page_count, free_head, user_root

REC_PAGE = 1
REC_HEADER = 2
REC_COMMIT = 3

_KIND_NAMES = {REC_PAGE: "PAGE", REC_HEADER: "HEADER", REC_COMMIT: "COMMIT"}


def wal_path(pagefile_path: PathLike) -> str:
    """The sidecar log path for a page file."""
    return f"{pagefile_path}.wal"


def needs_recovery(pagefile_path: PathLike,
                   wal_file: Optional[PathLike] = None) -> bool:
    """True when the sidecar log holds bytes past its 16-byte header —
    i.e. the last session did not complete a checkpoint and
    :func:`recover` must run before the page file can be trusted."""
    p = Path(wal_file if wal_file is not None else wal_path(pagefile_path))
    try:
        return p.exists() and p.stat().st_size > _WAL_HEADER.size
    except OSError:
        return False


@dataclass
class WALRecord:
    """One decoded log record (a page image, commit, or note)."""

    kind: int
    lsn: int
    page_id: int
    payload: bytes
    offset: int


def _record_crc(kind: int, lsn: int, page_id: int, payload: bytes) -> int:
    head = struct.pack("<BQQI", kind, lsn, page_id, len(payload))
    return zlib.crc32(payload, zlib.crc32(head)) & 0xFFFFFFFF


class WriteAheadLog:
    """Append-only log of page after-images with commit markers."""

    def __init__(self, fh, page_size: int, next_lsn: int, end_offset: int,
                 path: PathLike):
        self._fh = fh
        self.page_size = page_size
        self._next_lsn = max(1, next_lsn)
        self._end = end_offset
        self.path = path
        self._closed = False
        reg = global_registry()
        self._c_appends = reg.counter("wal.appended_records")
        self._c_bytes = reg.counter("wal.appended_bytes")
        self._c_commits = reg.counter("wal.commits")
        self._c_syncs = reg.counter("wal.syncs")
        self._c_truncates = reg.counter("wal.truncates")

    # ------------------------------------------------------------------
    @classmethod
    def create(cls, path: PathLike, page_size: int, start_lsn: int = 1,
               opener: Optional[Opener] = None) -> "WriteAheadLog":
        """Create (truncating) a fresh log."""
        fh = (opener or default_opener)(path, "w+b")
        fh.write(_WAL_HEADER.pack(_WAL_MAGIC, page_size))
        return cls(fh, page_size, start_lsn, _WAL_HEADER.size, path)

    @classmethod
    def open(cls, path: PathLike, start_lsn: int = 1,
             opener: Optional[Opener] = None) -> "WriteAheadLog":
        """Open an existing log, positioning appends after the last valid
        record (a torn tail is ignored and will be overwritten)."""
        fh = (opener or default_opener)(path, "r+b")
        header = fh.read(_WAL_HEADER.size)
        if len(header) < _WAL_HEADER.size:
            fh.close()
            raise WALError(f"{path}: not a WAL file (short header)")
        magic, page_size = _WAL_HEADER.unpack(header)
        if magic != _WAL_MAGIC:
            fh.close()
            raise WALError(f"{path}: bad WAL magic {magic!r}")
        wal = cls(fh, page_size, 1, _WAL_HEADER.size, path)
        max_lsn = 0
        for rec in wal.records():
            wal._end = rec.offset + _REC.size + len(rec.payload)
            max_lsn = max(max_lsn, rec.lsn)
        wal._next_lsn = max(start_lsn, max_lsn + 1)
        return wal

    @classmethod
    def open_or_create(cls, path: PathLike, page_size: int,
                       start_lsn: int = 1,
                       opener: Optional[Opener] = None) -> "WriteAheadLog":
        """Open an existing WAL (validating its page size) or create one."""
        p = Path(path)
        if p.exists() and p.stat().st_size >= _WAL_HEADER.size:
            wal = cls.open(path, start_lsn=start_lsn, opener=opener)
            if wal.page_size != page_size:
                wal.close()
                raise WALError(
                    f"{path}: WAL page size {wal.page_size} does not match "
                    f"page file page size {page_size}"
                )
            return wal
        return cls.create(path, page_size, start_lsn=start_lsn, opener=opener)

    # ------------------------------------------------------------------
    @property
    def next_lsn(self) -> int:
        """The LSN the next appended record will get."""
        return self._next_lsn

    @property
    def last_lsn(self) -> int:
        """The LSN of the most recently appended record."""
        return self._next_lsn - 1

    @property
    def size(self) -> int:
        """Bytes of valid log content (header + records)."""
        return self._end

    @property
    def empty(self) -> bool:
        """Whether the log holds no records at all."""
        return self._end <= _WAL_HEADER.size

    # ------------------------------------------------------------------
    def _append(self, kind: int, page_id: int, payload: bytes) -> tuple[int, int]:
        self._check_open()
        lsn = self._next_lsn
        self._next_lsn += 1
        record = _REC.pack(_record_crc(kind, lsn, page_id, payload),
                           kind, lsn, page_id, len(payload)) + payload
        offset = self._end
        self._fh.seek(offset)
        self._fh.write(record)
        self._end = offset + len(record)
        self._c_appends.value += 1
        self._c_bytes.value += len(record)
        return lsn, offset

    def append_page(self, page_id: int, data: bytes) -> tuple[int, int]:
        """Log a full page after-image; returns ``(lsn, offset)``."""
        if len(data) > self.page_size:
            raise WALError(
                f"page image of {len(data)} bytes exceeds page size "
                f"{self.page_size}"
            )
        return self._append(REC_PAGE, page_id, data)

    def append_header(self, page_count: int, free_head: int,
                      user_root: int) -> int:
        """Log the page file's header state for the upcoming commit."""
        payload = _HEADER_PAYLOAD.pack(page_count, free_head, user_root)
        lsn, _ = self._append(REC_HEADER, 0, payload)
        return lsn

    def commit(self, note: bytes = b"") -> int:
        """Append a COMMIT record and make everything before it durable.

        ``note`` is an optional short annotation carried in the COMMIT
        payload (e.g. ``b"extend gen=3 graphs=5"``,
        ``b"delete gen=4 graphs=7"``, or ``b"compact gen=5"`` from the
        disk index's group commits).  Recovery keys on the record *kind*
        only, so the payload is purely diagnostic — ``repro fsck``/log
        forensics can attribute a commit to the logical operation that
        produced it.
        """
        if len(note) > self.page_size:
            raise WALError(
                f"commit note of {len(note)} bytes exceeds page size "
                f"{self.page_size}"
            )
        lsn, _ = self._append(REC_COMMIT, 0, note)
        self.sync()
        self._c_commits.value += 1
        return lsn

    def sync(self) -> None:
        """Flush and fsync the log file (the durability barrier)."""
        self._check_open()
        self._fh.flush()
        fsync = getattr(self._fh, "fsync", None)
        if fsync is not None:
            fsync()
        else:
            os.fsync(self._fh.fileno())
        self._c_syncs.value += 1

    def truncate(self) -> None:
        """Drop every record (checkpoint completed); LSNs keep growing."""
        self._check_open()
        self._fh.seek(_WAL_HEADER.size)
        self._fh.truncate(_WAL_HEADER.size)
        self._end = _WAL_HEADER.size
        self.sync()
        self._c_truncates.value += 1

    # ------------------------------------------------------------------
    def read_page_at(self, offset: int) -> bytes:
        """Read back the page image of the PAGE record at ``offset``."""
        rec = self._read_record_at(offset)
        if rec is None or rec.kind != REC_PAGE:
            raise WALError(f"no valid PAGE record at WAL offset {offset}")
        return rec.payload

    def _read_record_at(self, offset: int) -> Optional[WALRecord]:
        self._fh.flush()
        self._fh.seek(offset)
        head = self._fh.read(_REC.size)
        if len(head) < _REC.size:
            return None
        crc, kind, lsn, page_id, length = _REC.unpack(head)
        if kind not in _KIND_NAMES or length > self.page_size:
            return None
        payload = self._fh.read(length)
        if len(payload) < length:
            return None
        if crc != _record_crc(kind, lsn, page_id, payload):
            return None
        return WALRecord(kind, lsn, page_id, payload, offset)

    def records(self) -> Iterator[WALRecord]:
        """Scan valid records from the start; stops at the first torn or
        corrupt record (everything after a tear is untrustworthy)."""
        self._check_open()
        offset = _WAL_HEADER.size
        while True:
            rec = self._read_record_at(offset)
            if rec is None:
                return
            yield rec
            offset += _REC.size + len(rec.payload)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Flush and close the log file."""
        if not self._closed:
            self._fh.flush()
            self._fh.close()
            self._closed = True

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise WALError("write-ahead log is closed")

    def __repr__(self) -> str:
        return (f"<WriteAheadLog {self.path} bytes={self._end} "
                f"next_lsn={self._next_lsn}>")


# ----------------------------------------------------------------------
# Recovery
# ----------------------------------------------------------------------
@dataclass
class RecoveryReport:
    """What :func:`recover` did, machine-readable for tests and the CLI."""

    path: str
    action: str = "none"    # none | discarded | replayed | reinitialized | uninitialized
    committed_lsn: int = 0
    replayed_pages: int = 0
    discarded_records: int = 0
    torn_tail: bool = False
    header_restored: bool = False
    #: False only when the crash predates any valid page-file header and
    #: any committed WAL record — i.e. the index never logically existed.
    initialized: bool = True
    notes: list[str] = field(default_factory=list)

    def summary(self) -> str:
        """Human-readable one-liner of what recovery did."""
        parts = [f"{self.path}: {self.action}"]
        if self.action == "replayed":
            parts.append(f"{self.replayed_pages} pages to LSN "
                         f"{self.committed_lsn}")
        if self.discarded_records:
            parts.append(f"{self.discarded_records} uncommitted records "
                         f"discarded")
        if self.torn_tail:
            parts.append("torn tail detected")
        return ", ".join(parts)


def recover(pagefile_path: PathLike, wal_file: Optional[PathLike] = None,
            opener: Optional[Opener] = None) -> RecoveryReport:
    """Bring a page file back to its last committed state.

    Replays page and header after-images up to the last COMMIT record in
    the sidecar WAL, discards everything after it (including torn tails),
    trims uncommitted physical extensions of the page file, and truncates
    the log.  Idempotent: running it on a clean index is a no-op.
    """
    wal_file = wal_file if wal_file is not None else wal_path(pagefile_path)
    opener = opener or default_opener
    report = RecoveryReport(path=str(pagefile_path))
    reg = global_registry()
    reg.counter("recovery.runs").value += 1

    wal_p = Path(wal_file)
    records: list[WALRecord] = []
    wal: Optional[WriteAheadLog] = None
    if wal_p.exists() and wal_p.stat().st_size > 0:
        try:
            wal = WriteAheadLog.open(wal_file, opener=opener)
            records = list(wal.records())
            file_bytes = wal_p.stat().st_size
            report.torn_tail = wal.size < file_bytes
        except WALError:
            # The WAL itself died mid-creation: nothing was ever committed
            # through it, so the page file's last checkpoint state stands.
            report.torn_tail = True
            report.notes.append("WAL header unreadable; reinitialized")

    commit_idx = None
    for i, rec in enumerate(records):
        if rec.kind == REC_COMMIT:
            commit_idx = i

    if commit_idx is None:
        # No committed work in the log: drop it and trim the page file back
        # to its last checkpoint header.
        report.discarded_records = len(records)
        if records or report.torn_tail:
            report.action = "discarded"
        if not _trim_to_header(pagefile_path, opener):
            # The page file's header never made it to disk either: the
            # index never logically existed.  If the WAL told us the page
            # size, reinitialize a pristine empty page file; otherwise
            # report the file as uninitialized garbage.
            if wal is not None:
                _reinitialize(pagefile_path, wal.page_size, opener)
                report.action = "reinitialized"
                report.notes.append(
                    "page file header was torn before any commit; "
                    "reinitialized empty"
                )
            else:
                report.action = "uninitialized"
                report.initialized = False
                report.notes.append(
                    "neither page file nor WAL ever reached a valid "
                    "header; no committed state exists"
                )
        _reset_wal(wal, wal_file, opener)
        reg.counter("recovery.discarded_records").value += len(records)
        return report

    # Latest committed image per page, plus the committed header state.
    pages: dict[int, tuple[int, bytes]] = {}
    header_state: Optional[tuple[int, int, int]] = None
    committed_lsn = 0
    for rec in records[:commit_idx + 1]:
        committed_lsn = max(committed_lsn, rec.lsn)
        if rec.kind == REC_PAGE:
            pages[rec.page_id] = (rec.lsn, rec.payload)
        elif rec.kind == REC_HEADER:
            header_state = _HEADER_PAYLOAD.unpack(rec.payload)
    report.discarded_records = len(records) - (commit_idx + 1)
    report.committed_lsn = committed_lsn

    if header_state is None:
        # A commit always follows a header record in our protocol; treat a
        # log that violates this as unusable rather than guessing.
        raise WALError(
            f"{wal_file}: COMMIT without a preceding HEADER record"
        )

    page_size = wal.page_size if wal is not None else 0
    page_count, free_head, user_root = header_state
    fh = opener(pagefile_path, "r+b")
    try:
        slot = page_size + 12  # page trailer size, mirrors pagefile._PAGE_TRAILER
        trailer = struct.Struct("<QI")
        for page_id, (lsn, payload) in sorted(pages.items()):
            if page_id >= page_count:
                report.notes.append(
                    f"page {page_id} beyond committed count {page_count}; "
                    f"skipped"
                )
                continue
            padded = payload.ljust(page_size, b"\0")
            crc = zlib.crc32(padded + struct.pack("<Q", lsn)) & 0xFFFFFFFF
            fh.seek(page_id * slot)
            fh.write(padded + trailer.pack(lsn, crc))
            report.replayed_pages += 1
        header = PageFile.pack_header(page_size, page_count, free_head,
                                      user_root, committed_lsn)
        fh.seek(0)
        fh.write(header.ljust(min(page_size, 256), b"\0"))
        report.header_restored = True
        fh.truncate(page_count * slot)
        fh.flush()
        fsync = getattr(fh, "fsync", None)
        if fsync is not None:
            fsync()
        else:
            os.fsync(fh.fileno())
    finally:
        fh.close()

    _reset_wal(wal, wal_file, opener)
    report.action = "replayed"
    reg.counter("recovery.replayed_pages").value += report.replayed_pages
    reg.counter("recovery.discarded_records").value += \
        report.discarded_records
    return report


def _trim_to_header(pagefile_path: PathLike, opener: Opener) -> bool:
    """Truncate uncommitted physical extensions (allocations whose header
    update never committed leave zero slots past the end).  Returns False
    when the page file has no valid header to trim back to."""
    if not Path(pagefile_path).exists():
        return False
    try:
        pf = PageFile.open(pagefile_path, opener=opener)
    except PersistenceError:
        return False
    try:
        pf.truncate_to_page_count()
        pf.sync()
    finally:
        pf.close()
    return True


def _reinitialize(pagefile_path: PathLike, page_size: int,
                  opener: Opener) -> None:
    PageFile.create(pagefile_path, page_size, opener=opener).close()


def _reset_wal(wal: Optional[WriteAheadLog], wal_file: PathLike,
               opener: Opener) -> None:
    if wal is not None:
        wal.truncate()
        wal.close()
        return
    if Path(wal_file).exists():
        # Unreadable WAL header — empty the file; the next writer will
        # lay down a fresh log header.
        fh = opener(wal_file, "w+b")
        fh.close()
