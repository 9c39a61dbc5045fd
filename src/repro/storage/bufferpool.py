"""An LRU buffer pool over a :class:`~repro.storage.pagefile.PageFile`.

Caches a bounded number of pages in memory with write-back on eviction.
The hit/miss counters are what the disk-backed C-tree benchmarks report:
query-time page faults as a function of cache capacity.

Two write-back modes:

- **Direct** (no WAL): dirty pages are written straight to the page file
  on eviction/flush — fast, but a crash can tear pages (the seed
  behavior, kept for throwaway indexes).
- **Logged** (``wal=`` given): *no steal to the main file*.  Dirty pages
  spilled under memory pressure go into the write-ahead log, and the page
  file's committed region is only modified inside :meth:`flush`, which is
  a full checkpoint: log remaining dirty pages + header, COMMIT (fsync),
  transfer the latest images into the page file, fsync, truncate the log.
  A crash anywhere leaves a state :func:`repro.storage.wal.recover` can
  restore exactly.

Counters live in two places: per-pool plain attributes (``hits``,
``misses``, ``evictions``, ``writebacks``) and mirrored ``bufferpool.*``
counters in a :class:`~repro.obs.metrics.MetricsRegistry` (the
process-wide one by default) which accumulate across pools for
``repro metrics``.  With
tracing enabled, each cache miss emits a ``bufferpool.read_through``
span containing the underlying ``pagefile.read`` span.
"""

from __future__ import annotations

import struct
from typing import Optional

from repro.exceptions import PersistenceError
from repro.obs import trace
from repro.obs.metrics import MetricsRegistry, global_registry
from repro.storage.pagefile import NO_PAGE, PageFile
from repro.storage.wal import WriteAheadLog

from collections import OrderedDict

_U64 = struct.Struct("<Q")


class BufferPool:
    """Fixed-capacity LRU page cache with write-back.

    Parameters
    ----------
    pagefile:
        The backing store.
    capacity:
        Maximum number of cached pages (>= 1).
    registry:
        Metrics registry the pool's counters report into (default: the
        process-wide registry).
    wal:
        Attach a write-ahead log and switch the pool into the logged
        (crash-safe) write-back protocol.  Implies deferred header writes
        on the page file.
    """

    def __init__(
        self,
        pagefile: PageFile,
        capacity: int = 64,
        registry: Optional[MetricsRegistry] = None,
        wal: Optional[WriteAheadLog] = None,
    ) -> None:
        if capacity < 1:
            raise PersistenceError(f"capacity must be >= 1, got {capacity}")
        self._file = pagefile
        self.capacity = capacity
        #: page_id -> (data, dirty); ordered oldest-first
        self._pages: OrderedDict[int, tuple[bytes, bool]] = OrderedDict()
        self._wal = wal
        #: page_id -> (lsn, wal offset) of the latest spilled image since
        #: the last checkpoint (logged mode only)
        self._wal_images: dict[int, tuple[int, int]] = {}
        if wal is not None:
            pagefile.defer_header = True
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0
        self.registry = registry if registry is not None else global_registry()
        self._c_hits = self.registry.counter("bufferpool.hits")
        self._c_misses = self.registry.counter("bufferpool.misses")
        self._c_evictions = self.registry.counter("bufferpool.evictions")
        self._c_writebacks = self.registry.counter("bufferpool.writebacks")
        self._c_wal_spills = self.registry.counter("bufferpool.wal_spills")
        self._c_wal_reads = self.registry.counter("bufferpool.wal_reads")
        self._c_checkpoints = self.registry.counter("bufferpool.checkpoints")

    # ------------------------------------------------------------------
    @property
    def pagefile(self) -> PageFile:
        """The underlying page file."""
        return self._file

    @property
    def wal(self) -> Optional[WriteAheadLog]:
        """The attached write-ahead log, if durability is on."""
        return self._wal

    def get(self, page_id: int) -> bytes:
        """Read a page through the cache."""
        cached = self._pages.get(page_id)
        if cached is not None:
            self._pages.move_to_end(page_id)
            self.hits += 1
            self._c_hits.value += 1
            return cached[0]
        self.misses += 1
        self._c_misses.value += 1
        spilled = self._wal_images.get(page_id)
        if spilled is not None:
            # The freshest image lives in the WAL, not the page file.
            data = self._wal.read_page_at(spilled[1])
            data = data.ljust(self._file.page_size, b"\0")
            self._c_wal_reads.value += 1
        else:
            with trace.span("bufferpool.read_through", page=page_id):
                data = self._file.read_page(page_id)
        self._insert(page_id, data, dirty=False)
        return data

    def put(self, page_id: int, data: bytes) -> None:
        """Write a page through the cache (flushed on eviction/close)."""
        if len(data) > self._file.page_size:
            raise PersistenceError(
                f"page data of {len(data)} bytes exceeds page size "
                f"{self._file.page_size}"
            )
        if not 1 <= page_id < self._file.page_count:
            raise PersistenceError(
                f"cannot cache unallocated page {page_id} "
                f"(page count {self._file.page_count})"
            )
        if page_id in self._pages:
            self._pages.move_to_end(page_id)
        self._pages[page_id] = (data, True)
        self._shrink()

    # ------------------------------------------------------------------
    # Allocation / free through the pool
    # ------------------------------------------------------------------
    def allocate(self) -> int:
        """Allocate a fresh page in the backing file."""
        if self._wal is None:
            return self._file.allocate()
        # Logged mode: the latest free-list links may live in the cache or
        # the WAL, so the free-list pop must read through the pool.
        head = self._file.free_head
        if head != NO_PAGE:
            data = self.get(head)
            (next_head,) = _U64.unpack_from(data, 0)
            return self._file.reclaim_free_head(next_head)
        return self._file.extend()

    def free(self, page_id: int) -> None:
        """Drop a page from cache and return it to the file's free list."""
        if self._wal is None:
            self._pages.pop(page_id, None)
            self._file.free(page_id)
            return
        # Logged mode: the free-list link is a normal logical page write —
        # it must reach the main file only via a checkpoint.
        previous = self._file.mark_freed(page_id)
        self._pages.pop(page_id, None)
        self.put(page_id, _U64.pack(previous))

    # ------------------------------------------------------------------
    def _insert(self, page_id: int, data: bytes, dirty: bool) -> None:
        self._pages[page_id] = (data, dirty)
        self._pages.move_to_end(page_id)
        self._shrink()

    def _shrink(self) -> None:
        while len(self._pages) > self.capacity:
            victim_id, (data, dirty) = self._pages.popitem(last=False)
            self.evictions += 1
            self._c_evictions.value += 1
            if not dirty:
                continue
            if self._wal is not None:
                # No steal: spill the image to the log, not the main file.
                lsn, offset = self._wal.append_page(victim_id, data)
                self._wal_images[victim_id] = (lsn, offset)
                self._c_wal_spills.value += 1
            else:
                with trace.span("bufferpool.writeback", page=victim_id):
                    self._file.write_page(victim_id, data)
                self.writebacks += 1
                self._c_writebacks.value += 1

    def flush(self, note: bytes = b"") -> None:
        """Write every dirty page back and sync the file.

        In logged mode this is a full checkpoint (commit point included);
        on return the page file alone holds the complete state and the
        WAL is empty.  ``note`` is carried on the COMMIT record
        (diagnostic only — see :meth:`WriteAheadLog.commit
        <repro.storage.wal.WriteAheadLog.commit>`); a group commit —
        an ``extend``, ``delete_many``, or ``compact`` batch — stamps
        the whole staged batch with one note here.
        """
        if self._wal is None:
            for page_id, (data, dirty) in self._pages.items():
                if dirty:
                    self._file.write_page(page_id, data)
                    self.writebacks += 1
                    self._c_writebacks.value += 1
                    self._pages[page_id] = (data, False)
            self._file.flush()
            return
        self._checkpoint(note)

    def _checkpoint(self, note: bytes = b"") -> None:
        wal = self._wal
        dirty_cached = [
            (pid, data) for pid, (data, dirty) in self._pages.items() if dirty
        ]
        if not dirty_cached and not self._wal_images \
                and not self._file.header_dirty:
            return  # nothing changed since the last checkpoint
        with trace.span("bufferpool.checkpoint",
                        dirty=len(dirty_cached),
                        spilled=len(self._wal_images)):
            # 1. Complete the log: every dirty image plus the header state.
            for pid, data in dirty_cached:
                lsn, offset = wal.append_page(pid, data)
                self._wal_images[pid] = (lsn, offset)
            wal.append_header(*self._file.header_state())
            # 2. The commit point.
            commit_lsn = wal.commit(note)
            # 3. Transfer the latest image of every logged page.
            for pid, (lsn, offset) in sorted(self._wal_images.items()):
                cached = self._pages.get(pid)
                data = cached[0] if cached is not None \
                    else wal.read_page_at(offset)
                self._file.write_page(pid, data, lsn=lsn)
                self.writebacks += 1
                self._c_writebacks.value += 1
            self._file.last_lsn = commit_lsn
            self._file.write_header_now()
            self._file.sync()
            # 4. The checkpoint is durable: drop the log.
            wal.truncate()
        self._wal_images.clear()
        for pid, (data, dirty) in list(self._pages.items()):
            if dirty:
                self._pages[pid] = (data, False)
        self._c_checkpoints.value += 1

    def close(self) -> None:
        """Flush everything and close the WAL and page file."""
        self.flush()
        if self._wal is not None:
            self._wal.close()
        self._file.close()

    @property
    def hit_ratio(self) -> float:
        """Hits over total accesses; 0.0 before any access."""
        total = self.hits + self.misses
        return self.hits / total if total > 0 else 0.0

    def __repr__(self) -> str:
        return (f"<BufferPool {len(self._pages)}/{self.capacity} pages, "
                f"hits={self.hits} misses={self.misses}>")
