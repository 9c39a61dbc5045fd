"""A fixed-size page file with per-page checksums.

The bottom layer of the disk-backed C-tree (the paper's advantage list:
"dynamic insertion/deletion and disk-based access of graphs can be done
efficiently").  A :class:`PageFile` exposes numbered fixed-size pages in a
single OS file, with a free list for recycling.

Format v2 (``CTPF0002``) adds crash-safety plumbing:

- every page slot carries a 12-byte trailer ``<lsn: u64><crc32: u32>``
  covering the payload, so torn or bit-rotted pages are detected on read;
- the header carries its own CRC32 and the LSN of the last checkpoint, so
  recovery can tell how far the durable state got;
- header writes can be *deferred* (``defer_header``) — the write-ahead-log
  protocol in :mod:`repro.storage.bufferpool` keeps the on-disk header
  frozen at the last checkpoint and publishes new header states through
  the WAL instead.

File layout::

    slot 0:       header — magic, page size, page count, free-list head,
                  user-root slot, last checkpoint LSN, CRC32
    slot 1..N-1:  data pages; a freed page stores the next free page id in
                  its first 8 bytes.  Each slot is page_size + 12 bytes.

All multi-byte integers are little-endian unsigned.
"""

from __future__ import annotations

import os
import struct
import zlib
from pathlib import Path
from typing import Callable, Optional, Union

from repro.exceptions import ChecksumError, PersistenceError
from repro.obs import trace
from repro.obs.metrics import global_registry

PathLike = Union[str, Path]

#: ``opener(path, mode) -> file`` hook so the fault-injection layer
#: (:mod:`repro.storage.faultfs`) can interpose on every file handle.
Opener = Callable[[PathLike, str], object]

_MAGIC = b"CTPF0002"
_MAGIC_V1 = b"CTPF0001"
# magic, page_size, page_count, free_head, user_root, last_lsn
_HEADER = struct.Struct("<8sQQQQQ")
_HEADER_CRC = struct.Struct("<I")
_PAGE_TRAILER = struct.Struct("<QI")  # lsn, crc32(payload + lsn)
_U64 = struct.Struct("<Q")

#: Sentinel "no page" id (page 0 is the header, never a data page).
NO_PAGE = 0

DEFAULT_PAGE_SIZE = 4096
_MIN_PAGE_SIZE = 64


def default_opener(path: PathLike, mode: str):
    """Plain ``open`` — swapped out by fault-injecting tests."""
    return open(path, mode)


def _page_crc(payload: bytes, lsn: int) -> int:
    return zlib.crc32(payload + _U64.pack(lsn)) & 0xFFFFFFFF


class PageFile:
    """Numbered fixed-size checksummed pages in one file.

    Use :meth:`create` for a new file and :meth:`open` for an existing one;
    both return an object usable as a context manager.
    """

    def __init__(self, fh, page_size: int, page_count: int, free_head: int,
                 user_root: int = NO_PAGE, last_lsn: int = 0):
        self._fh = fh
        self.page_size = page_size
        self._page_count = page_count
        self._free_head = free_head
        self._user_root = user_root
        self._last_lsn = last_lsn
        self._closed = False
        #: When True, header mutations stay in memory until
        #: :meth:`write_header_now` — the WAL checkpoint protocol's hook.
        self.defer_header = False
        self._header_dirty = False
        #: pages freed since open, to catch double-frees before they put a
        #: cycle in the free list
        self._session_freed: set[int] = set()
        #: physical I/O counters (also mirrored into the process-wide
        #: metrics registry as ``pagefile.reads`` / ``pagefile.writes``)
        self.reads = 0
        self.writes = 0
        self._c_reads = global_registry().counter("pagefile.reads")
        self._c_writes = global_registry().counter("pagefile.writes")

    # ------------------------------------------------------------------
    @classmethod
    def create(cls, path: PathLike, page_size: int = DEFAULT_PAGE_SIZE,
               opener: Optional[Opener] = None) -> "PageFile":
        """Create (truncating) a page file."""
        if page_size < _MIN_PAGE_SIZE:
            raise PersistenceError(
                f"page size must be >= {_MIN_PAGE_SIZE}, got {page_size}"
            )
        fh = (opener or default_opener)(path, "w+b")
        pf = cls(fh, page_size, page_count=1, free_head=NO_PAGE)
        pf._write_header(force=True)
        return pf

    @classmethod
    def open(cls, path: PathLike,
             opener: Optional[Opener] = None) -> "PageFile":
        """Open an existing page file, validating its header."""
        fh = (opener or default_opener)(path, "r+b")
        header = fh.read(_HEADER.size + _HEADER_CRC.size)
        if len(header) < _HEADER.size + _HEADER_CRC.size:
            fh.close()
            raise PersistenceError(f"{path}: not a page file (short header)")
        fields = _HEADER.unpack_from(header, 0)
        magic, page_size, page_count, free_head, user_root, last_lsn = fields
        if magic == _MAGIC_V1:
            fh.close()
            raise PersistenceError(
                f"{path}: v1 page file without checksums; rebuild the index"
            )
        if magic != _MAGIC:
            fh.close()
            raise PersistenceError(f"{path}: bad magic {magic!r}")
        (stored_crc,) = _HEADER_CRC.unpack_from(header, _HEADER.size)
        if stored_crc != (zlib.crc32(header[:_HEADER.size]) & 0xFFFFFFFF):
            fh.close()
            raise ChecksumError(f"{path}: header checksum mismatch")
        return cls(fh, page_size, page_count, free_head, user_root, last_lsn)

    @staticmethod
    def pack_header(page_size: int, page_count: int, free_head: int,
                    user_root: int, last_lsn: int) -> bytes:
        """The on-disk header bytes for the given state (recovery writes
        this directly when replaying a committed WAL header record)."""
        packed = _HEADER.pack(_MAGIC, page_size, page_count, free_head,
                              user_root, last_lsn)
        return packed + _HEADER_CRC.pack(zlib.crc32(packed) & 0xFFFFFFFF)

    def _write_header(self, force: bool = False) -> None:
        if self.defer_header and not force:
            self._header_dirty = True
            return
        self._fh.seek(0)
        header = self.pack_header(self.page_size, self._page_count,
                                  self._free_head, self._user_root,
                                  self._last_lsn)
        self._fh.write(header.ljust(min(self.page_size, 256), b"\0"))
        self._header_dirty = False

    def write_header_now(self) -> None:
        """Force the header to disk even in ``defer_header`` mode (the WAL
        checkpoint calls this after the page transfer)."""
        self._check_open()
        self._write_header(force=True)

    # ------------------------------------------------------------------
    @property
    def page_count(self) -> int:
        """Total pages including the header page."""
        return self._page_count

    @property
    def slot_size(self) -> int:
        """Physical bytes per page slot (payload + trailer)."""
        return self.page_size + _PAGE_TRAILER.size

    @property
    def header_dirty(self) -> bool:
        """Whether the in-memory header has unwritten changes."""
        return self._header_dirty

    @property
    def last_lsn(self) -> int:
        """LSN of the last checkpoint that reached this file's header."""
        return self._last_lsn

    @last_lsn.setter
    def last_lsn(self, value: int) -> None:
        """Stage a new checkpoint LSN; written on the next flush."""
        self._last_lsn = value
        self._header_dirty = True

    @property
    def user_root(self) -> int:
        """A client-defined root pointer persisted in the header (the
        disk-backed C-tree stores its metadata record id here)."""
        return self._user_root

    @user_root.setter
    def user_root(self, value: int) -> None:
        """Set the client root pointer and persist the header."""
        self._check_open()
        self._user_root = value
        self._write_header()

    @property
    def free_head(self) -> int:
        """Head of the free-page list (``NO_PAGE`` when empty)."""
        return self._free_head

    def header_state(self) -> tuple[int, int, int]:
        """``(page_count, free_head, user_root)`` — what a WAL header
        record publishes at commit time."""
        return (self._page_count, self._free_head, self._user_root)

    # ------------------------------------------------------------------
    def allocate(self) -> int:
        """Allocate a page (recycling the free list first); returns its id."""
        self._check_open()
        if self._free_head != NO_PAGE:
            data = self.read_page(self._free_head)
            (next_head,) = _U64.unpack_from(data, 0)
            page_id = self.reclaim_free_head(next_head)
        else:
            page_id = self.extend()
        return page_id

    def extend(self) -> int:
        """Append a fresh zeroed page at the end of the file."""
        self._check_open()
        page_id = self._page_count
        self._page_count += 1
        self.write_page(page_id, b"")
        self._write_header()
        return page_id

    def mark_freed(self, page_id: int) -> int:
        """Record ``page_id`` as the new free-list head without touching
        the page itself; returns the previous head (the link target).

        Split out from :meth:`free` so the buffer pool's WAL mode can
        route the link write through the log instead of the file.
        """
        self._check_page(page_id)
        if page_id in self._session_freed:
            raise PersistenceError(
                f"double free of page {page_id} (free-list cycle averted)"
            )
        self._session_freed.add(page_id)
        previous = self._free_head
        self._free_head = page_id
        self._write_header()
        return previous

    def reclaim_free_head(self, next_head: int) -> int:
        """Pop the free-list head, pointing the list at ``next_head``."""
        self._check_open()
        page_id = self._free_head
        if page_id == NO_PAGE:
            raise PersistenceError("free list is empty")
        self._session_freed.discard(page_id)
        self._free_head = next_head
        self._write_header()
        return page_id

    def free(self, page_id: int) -> None:
        """Return a page to the free list."""
        previous = self.mark_freed(page_id)
        self.write_page(page_id, _U64.pack(previous))

    def read_page(self, page_id: int, verify: bool = True) -> bytes:
        """Read one page (always ``page_size`` bytes), checking its CRC."""
        data, _ = self.read_page_ex(page_id, verify=verify)
        return data

    def read_page_ex(self, page_id: int,
                     verify: bool = True) -> tuple[bytes, int]:
        """Read one page, returning ``(payload, lsn)``."""
        self._check_page(page_id)
        with trace.span("pagefile.read", page=page_id):
            self._fh.seek(page_id * self.slot_size)
            raw = self._fh.read(self.slot_size)
        self.reads += 1
        self._c_reads.value += 1
        if len(raw) < self.slot_size:
            raw = raw.ljust(self.slot_size, b"\0")
        payload = raw[:self.page_size]
        lsn, crc = _PAGE_TRAILER.unpack_from(raw, self.page_size)
        if verify and crc != _page_crc(payload, lsn):
            raise ChecksumError(
                f"page {page_id}: checksum mismatch (torn or corrupt page)"
            )
        return payload, lsn

    def write_page(self, page_id: int, data: bytes, lsn: int = 0) -> None:
        """Write one page (padded/validated to ``page_size``)."""
        self._check_open()
        if page_id < 1:
            raise PersistenceError(f"cannot write reserved page {page_id}")
        if page_id >= self._page_count:
            raise PersistenceError(
                f"cannot write unallocated page {page_id} "
                f"(page count {self._page_count})"
            )
        if len(data) > self.page_size:
            raise PersistenceError(
                f"page data of {len(data)} bytes exceeds page size "
                f"{self.page_size}"
            )
        payload = data.ljust(self.page_size, b"\0")
        with trace.span("pagefile.write", page=page_id):
            self._fh.seek(page_id * self.slot_size)
            self._fh.write(
                payload + _PAGE_TRAILER.pack(lsn, _page_crc(payload, lsn))
            )
        self.writes += 1
        self._c_writes.value += 1

    def truncate_to_page_count(self) -> None:
        """Drop any physical bytes past the last page (recovery trims
        uncommitted extensions with this)."""
        self._check_open()
        self._fh.truncate(self._page_count * self.slot_size)

    # ------------------------------------------------------------------
    def sync(self) -> None:
        """Flush OS buffers and fsync, without touching the header."""
        self._check_open()
        self._fsync()

    def _fsync(self) -> None:
        self._fh.flush()
        fsync = getattr(self._fh, "fsync", None)
        if fsync is not None:
            fsync()
        else:
            os.fsync(self._fh.fileno())

    def flush(self) -> None:
        """Write the header (unless deferred) and fsync the file."""
        self._check_open()
        if not self.defer_header:
            self._write_header()
        self._fsync()

    def close(self) -> None:
        """Persist the header (unless deferred) and close the file."""
        if not self._closed:
            if not self.defer_header:
                self._write_header()
            self._fh.flush()
            self._fh.close()
            self._closed = True

    def __enter__(self) -> "PageFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise PersistenceError("page file is closed")

    def _check_page(self, page_id: int) -> None:
        self._check_open()
        if not 1 <= page_id < self._page_count:
            raise PersistenceError(
                f"page {page_id} out of range [1, {self._page_count})"
            )

    def __repr__(self) -> str:
        return (f"<PageFile pages={self._page_count} "
                f"page_size={self.page_size}>")
