"""Variable-length records packed into slotted pages (record format 4).

Every page the store writes starts with one 16-byte header::

    <link: u64><count: u16><unused: u16><tag: 4 bytes>

A *record page* (tag ``CTR4``, link ``NO_PAGE``, count = slots) holds
many records behind a slot directory::

    slot i (4 B)    <offset: u16><length: u16>, from byte 16 up
    record bytes    packed in slot order right after the directory

A slot whose offset is 0 is free.  A length with its high bit set marks
an *overflow* record: its 8 in-page bytes are the first page id of a
chain of *overflow pages* (tag ``CTO4``, link = next page, count = payload
bytes) that holds the record's bytes.  A record id is ``page << 16 |
slot``, so it never changes once issued: :meth:`RecordStore.update`
keeps a record in its slot, moving its bytes to (or back from) an
overflow chain when they outgrow (or fit again in) the page.  To make
that move always possible, every live record counts at least 8 bytes
against its page's space.  A record page whose last slot is freed goes
back to the page free list; the zero link keeps a live record page's
first 8 bytes ``NO_PAGE``, the link a free page would have.

New records go to a *fill page* until it is full, so records written one
after another (a leaf's graphs, then the leaf) share pages.  A batch
starts filling the file's last page, if that is a record page, and
:meth:`RecordStore.flush` closes the fill page: where a record lands
depends on the committed file and the batch, never on what the handle
did before.  Every write repacks the page it changes; a read slices the
record out of the page through the LRU pool without parsing the rest.
"""

from __future__ import annotations

import struct
from typing import Container, Optional

from repro.exceptions import PersistenceError
from repro.storage.bufferpool import BufferPool
from repro.storage.pagefile import NO_PAGE

_PAGE_HEADER = struct.Struct("<QH2x4s")  # link, count, tag
_RECORDS = b"CTR4"  # tag of a record page
_CHAIN = b"CTO4"  # tag of an overflow page
_SLOT = struct.Struct("<HH")  # offset, length (high bit: overflow)
_OVERFLOW = 0x8000
_STUB = struct.Struct("<Q")  # an overflow record's in-page bytes
_SLOT_BITS = 16

#: One live slot: its in-page bytes and whether they are an overflow stub.
_Entry = tuple[bytes, bool]


def _header(page: bytes) -> tuple[int, int, bytes]:
    """``(link, count, tag)`` of a page; the pool may hold a free page as
    its bare 8-byte link."""
    return _PAGE_HEADER.unpack(page[:_PAGE_HEADER.size].ljust(
        _PAGE_HEADER.size, b"\0"))


def record_page(record_id: int) -> int:
    """The page a record id's slot lives on."""
    return record_id >> _SLOT_BITS


class RecordStore:
    """Store/load/update/delete byte-string records through a buffer pool."""

    def __init__(self, pool: BufferPool) -> None:
        self._pool = pool
        self._page_size = page_size = pool.pagefile.page_size
        #: the largest record kept in its slot on an otherwise empty page
        self._inline_max = page_size - _PAGE_HEADER.size - _SLOT.size
        self._chain_capacity = page_size - _PAGE_HEADER.size
        if self._inline_max >= _OVERFLOW:
            raise PersistenceError(
                "page size too large for record pages (slot lengths are "
                "15-bit)")
        #: the page new records go to until the next :meth:`flush`
        self._fill = NO_PAGE

    @property
    def pool(self) -> BufferPool:
        """The buffer pool all record I/O goes through."""
        return self._pool

    # ------------------------------------------------------------------
    def store(self, data: bytes) -> int:
        """Write a record into the fill page (a fresh one when it is
        full); returns its id."""
        if len(data) > self._inline_max:
            entry = (_STUB.pack(self._write_chain(data, [])), True)
        else:
            entry = (data, False)
        need = max(len(entry[0]), _STUB.size)
        page_id, slots = self._fill, []
        if page_id == NO_PAGE:
            last = self._pool.pagefile.page_count - 1
            if self._is_records(last):
                page_id = last
        if page_id != NO_PAGE:
            slots = self._slots(page_id)
            if None not in slots:
                need += _SLOT.size
            if self._room(slots) < need:
                page_id = NO_PAGE
        if page_id == NO_PAGE:
            page_id = self._pool.allocate()
            slots = []
        self._fill = page_id
        slot = slots.index(None) if None in slots else len(slots)
        slots[slot:slot + 1] = [entry]
        self._write_slots(page_id, slots)
        return page_id << _SLOT_BITS | slot

    def load(self, record_id: int) -> bytes:
        """Read a record by id."""
        data, overflow = self._locate(record_id)
        if not overflow:
            return data
        return b"".join(part for _, part in self._chain(data))

    def update(self, record_id: int, data: bytes) -> int:
        """Rewrite a record in place; returns its (unchanged) id.

        The incremental disk-index insert relies on the stable id to
        update a node along the root-to-leaf path without touching its
        parent's child pointer, and the metadata record's id is the page
        file's user root.  The bytes stay in the record's page while
        they fit there, and otherwise go to an overflow chain that reuses
        the old chain's pages (free list next); surplus chain pages are
        freed.
        """
        page_id, slot = record_page(record_id), record_id & 0xFFFF
        slots = self._slots(page_id)
        old = self._live(record_id, slots)
        chain = [page for page, _ in self._chain(old[0])] \
            if old[1] else []
        room = self._room(slots) + max(len(old[0]), _STUB.size)
        if len(data) <= self._inline_max and \
                max(len(data), _STUB.size) <= room:
            slots[slot] = (data, False)
            for page in chain:
                self._pool.free(page)
        else:
            slots[slot] = (_STUB.pack(self._write_chain(data, chain)), True)
        if slots[slot] != old:   # a chain rewritten in place leaves the page
            self._write_slots(page_id, slots)
        return record_id

    def delete(self, record_id: int) -> int:
        """Free a record's slot and its overflow pages, and its page once
        no slot is live; returns how many pages went back to the free
        list (fsck later proves reachable and free pages still tile the
        file exactly)."""
        page_id = record_page(record_id)
        slots = self._slots(page_id)
        data, overflow = self._live(record_id, slots)
        freed = 0
        if overflow:
            for page, _ in self._chain(data):
                self._pool.free(page)
                freed += 1
        slots[record_id & 0xFFFF] = None
        if any(slots):
            self._write_slots(page_id, slots)
            return freed
        if page_id == self._fill:
            self._fill = NO_PAGE
        self._pool.free(page_id)
        return freed + 1

    def chain_pages(self, record_id: int) -> list[int]:
        """The pages a record occupies: its record page, then its
        overflow chain (``fsck`` counts these reachable)."""
        data, overflow = self._locate(record_id)
        chain = self._chain(data) if overflow else []
        return [record_page(record_id), *(page for page, _ in chain)]

    def flush(self, note: bytes = b"") -> None:
        """Close the fill page and flush the pool (in logged mode a
        checkpoint carrying ``note``)."""
        self._fill = NO_PAGE
        self._pool.flush(note)

    def page_findings(self, page_id: int,
                      reached: Container[int]) -> list[str]:
        """What ``fsck`` finds wrong with the directory of record page
        ``page_id``, given the ids of the records the index reaches:
        live slots whose bytes overlap, and live slots no record id
        reaches (leaked)."""
        try:
            slots = self._directory(page_id, self._pool.get(page_id))
        except PersistenceError as exc:
            return [str(exc)]
        findings = []
        spans = sorted((offset, offset + (length & ~_OVERFLOW), slot)
                       for slot, (offset, length) in enumerate(slots)
                       if offset and length & ~_OVERFLOW)
        top, owner = _PAGE_HEADER.size + len(slots) * _SLOT.size, None
        for start, end, slot in spans:
            if start < top:
                findings.append(
                    f"page {page_id}: the bytes of slot {slot} overlap "
                    + ("the slot directory" if owner is None
                       else f"those of slot {owner}"))
            if end > top:
                top, owner = end, slot
        findings += [
            f"page {page_id}: slot {slot} holds a record no index entry "
            f"reaches (leaked)"
            for slot, (offset, _) in enumerate(slots)
            if offset and page_id << _SLOT_BITS | slot not in reached]
        return findings

    # ------------------------------------------------------------------
    def _directory(self, page_id: int, page: bytes) -> list[tuple[int, int]]:
        """``(offset, length)`` per slot of a record page, as stored."""
        _, count, tag = _header(page)
        if tag != _RECORDS:
            raise PersistenceError(f"page {page_id} is not a record page")
        end = _PAGE_HEADER.size + count * _SLOT.size
        if end > self._page_size:
            raise PersistenceError(
                f"page {page_id}: {count} slots overrun the page")
        return list(_SLOT.iter_unpack(page[_PAGE_HEADER.size:end]))

    def _locate(self, record_id: int) -> _Entry:
        """A live record's in-page bytes and overflow flag."""
        page_id = record_page(record_id)
        page = self._pool.get(page_id)
        _, count, tag = _header(page)
        if tag != _RECORDS:
            raise PersistenceError(f"page {page_id} is not a record page")
        slot = record_id & 0xFFFF
        if slot >= count:
            raise PersistenceError(f"page {page_id} has no slot {slot}")
        entry = self._entry(page_id, slot, page, *_SLOT.unpack_from(
            page, _PAGE_HEADER.size + slot * _SLOT.size))
        if entry is None:
            raise PersistenceError(f"slot {slot} of page {page_id} is free")
        return entry

    def _entry(self, page_id: int, slot: int, page: bytes, offset: int,
               length: int) -> Optional[_Entry]:
        """The in-page bytes and overflow flag one directory slot
        describes; ``None`` for a free slot."""
        if not offset:
            return None
        size = length & ~_OVERFLOW
        if offset + size > self._page_size:
            raise PersistenceError(
                f"slot {slot} runs past the end of page {page_id}")
        overflow = bool(length & _OVERFLOW)
        if overflow and size != _STUB.size:
            raise PersistenceError(
                f"overflow slot {slot} of page {page_id} holds {size} "
                f"bytes, not 8")
        return page[offset:offset + size], overflow

    def _slots(self, page_id: int) -> list[Optional[_Entry]]:
        """Every slot of a record page, checked: ``None`` where free."""
        page = self._pool.get(page_id)
        return [self._entry(page_id, slot, page, *fields)
                for slot, fields in enumerate(self._directory(page_id, page))]

    @staticmethod
    def _live(record_id: int, slots: list[Optional[_Entry]]) -> _Entry:
        slot = record_id & 0xFFFF
        entry = slots[slot] if slot < len(slots) else None
        if entry is None:
            raise PersistenceError(
                f"slot {slot} of page {record_page(record_id)} is free")
        return entry

    def _is_records(self, page_id: int) -> bool:
        """Whether ``page_id`` is a record page (not the header, an
        overflow page or a free one)."""
        return page_id > NO_PAGE and \
            _header(self._pool.get(page_id))[2] == _RECORDS

    def _room(self, slots: list[Optional[_Entry]]) -> int:
        """Bytes of a page still free for records, each live one
        counting at least an overflow stub."""
        used = sum(max(len(entry[0]), _STUB.size)
                   for entry in slots if entry is not None)
        return (self._page_size - _PAGE_HEADER.size
                - len(slots) * _SLOT.size - used)

    def _write_slots(self, page_id: int,
                     slots: list[Optional[_Entry]]) -> None:
        """Repack a record page: directory, then the live records' bytes
        in slot order (trailing free slots dropped)."""
        while slots and slots[-1] is None:
            slots.pop()
        offset = _PAGE_HEADER.size + len(slots) * _SLOT.size
        directory, data = [], []
        for entry in slots:
            if entry is None:
                directory.append(_SLOT.pack(0, 0))
                continue
            raw, overflow = entry
            directory.append(_SLOT.pack(
                offset, len(raw) | (_OVERFLOW if overflow else 0)))
            data.append(raw)
            offset += len(raw)
        self._pool.put(page_id, b"".join(
            [_PAGE_HEADER.pack(NO_PAGE, len(slots), _RECORDS), *directory,
             *data]))

    def _chain(self, stub: bytes) -> list[tuple[int, bytes]]:
        """``(page id, payload)`` along an overflow record's chain."""
        (page_id,) = _STUB.unpack(stub)
        parts: list[tuple[int, bytes]] = []
        seen: set[int] = set()
        while page_id != NO_PAGE:
            if page_id in seen:
                raise PersistenceError(
                    f"corrupt overflow chain: page {page_id} repeats")
            seen.add(page_id)
            page = self._pool.get(page_id)
            next_page, length, tag = _header(page)
            if tag != _CHAIN:
                raise PersistenceError(
                    f"corrupt overflow chain: page {page_id} is not an "
                    f"overflow page")
            if length > self._chain_capacity:
                raise PersistenceError(
                    f"corrupt overflow chain: length {length} exceeds "
                    f"capacity")
            parts.append((page_id, page[_PAGE_HEADER.size:
                                        _PAGE_HEADER.size + length]))
            page_id = next_page
        return parts

    def _write_chain(self, data: bytes, pages: list[int]) -> int:
        """Write ``data`` as an overflow chain over ``pages`` (allocating
        more, freeing the surplus); returns the head page id."""
        capacity = self._chain_capacity
        chunks = [data[i:i + capacity] for i in range(0, len(data), capacity)]
        page_ids = pages[:len(chunks)]
        while len(page_ids) < len(chunks):
            page_ids.append(self._pool.allocate())
        for index, chunk in enumerate(chunks):
            next_page = page_ids[index + 1] if index + 1 < len(page_ids) \
                else NO_PAGE
            self._pool.put(page_ids[index], _PAGE_HEADER.pack(
                next_page, len(chunk), _CHAIN) + chunk)
        for page_id in pages[len(chunks):]:
            self._pool.free(page_id)
        return page_ids[0]
