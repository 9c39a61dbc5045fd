"""Disk-backed C-tree (the paper's advantage #4).

"Dynamic insertion/deletion and disk-based access of graphs can be done
efficiently" — this module materializes a built C-tree into a page file
(one record per node, one per graph) and answers queries by reading
nodes on demand through an LRU buffer pool.  The interesting quantity is
page I/O per query as a function of cache capacity, which
``benchmarks/bench_ablation_diskio.py`` sweeps.

:class:`DiskCTree` is the one C-tree (:class:`~repro.ctree.tree.CTreeCore`)
over a :class:`~repro.ctree.store.PagedNodeStore`: Section 5 insertion,
splitting and deletion, the ``extend`` / ``delete_many`` / ``compact``
batches that run them, and the Alg. 3 / Alg. 4 traversals are the very
code the in-memory tree runs.  What lives here is what only a page file
needs: the index metadata and its generations, the group commit that
closes a batch, the record rewrite that installs a compacted tree, and
recovery / ``fsck``.

The index is crash-safe by default: a sidecar write-ahead log
(``index.ctp.wal``) makes :meth:`DiskCTree.create`, ``extend``,
``delete_many`` and ``compact`` atomic — after a crash,
:meth:`DiskCTree.recover` (or opening with ``auto_recover=True``)
replays the log to the last committed generation and
:meth:`DiskCTree.fsck` validates the result (checksums, page accounting,
closure containment).  See ``docs/DURABILITY.md``.

Appends and deletes are **incremental**: each graph dirties only its
root-to-leaf path plus any split siblings or merge partners, never the
rest of the tree, and a whole batch is **group-committed** — one WAL
flush and one fsync close it, so write cost stays flat as the database
grows.  A tree that churn has hollowed out is repacked by
``compact``, which fires automatically when leaf occupancy or height
degrades past the fixed thresholds ``DEFAULT_MIN_OCCUPANCY`` /
``DEFAULT_HEIGHT_SLACK`` of :mod:`repro.ctree.tree`
(``ctree.disk.compactions``).

Usage::

    tree = bulk_load(graphs, ...)
    with DiskCTree.create(tree, "index.ctp", cache_pages=128) as disk:
        answers, stats = disk.subgraph_query(query)
        print(stats.page_misses, stats.page_hits)

    with DiskCTree.open("index.ctp") as disk:   # later, cold
        disk.extend(more_graphs)
"""

from __future__ import annotations

import json
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.exceptions import (
    ChecksumError,
    ConfigError,
    PersistenceError,
    ReproError,
)
from repro.graphs.graph import Graph
from repro.matching.pseudo_iso import Level
from repro.obs import trace
from repro.obs.metrics import global_registry
from repro.ctree.node import CTreeNode
from repro.ctree.similarity_query import knn_query
from repro.ctree.stats import DiskKnnStats, DiskQueryStats
from repro.ctree.store import (
    BAD_RECORD,
    PagedNodeStore,
    StoredEntry,
    decode_graph,
    decode_node,
    dump_record,
)
from repro.ctree.subgraph_query import subgraph_query
from repro.ctree.tree import DEFAULT_MIN_OCCUPANCY, CTree, CTreeCore
from repro.storage.bufferpool import BufferPool
from repro.storage.pagefile import NO_PAGE, PageFile, PathLike
from repro.storage.recordstore import RecordStore, record_page
from repro.storage.wal import (
    RecoveryReport,
    WriteAheadLog,
    needs_recovery,
    recover as storage_recover,
    wal_path,
)

#: Record format version (see :mod:`repro.ctree.store` and
#: :mod:`repro.storage.recordstore`).
_FORMAT = 4

#: The metadata keys every create and compaction writes (fsck checks).
_META_KEYS = ("root", "graph_count", "next_id", "height", "leaf_count",
              "generation", "config")

#: Buffer-pool pages of a disk handle — and the most decoded nodes its
#: store keeps resident — unless the caller says otherwise: the one
#: default behind ``--cache-pages``, the engine's per-worker handles and
#: ``ServerConfig.cache_pages``.
DEFAULT_CACHE_PAGES = 128

_U64 = struct.Struct("<Q")


def _refusal(fmt) -> str:
    """Why an index of another record format is not opened, and the way
    out."""
    return (f"index format {fmt}, this version reads format {_FORMAT} "
            f"only; re-create the index from its graphs (`repro build`)")


@dataclass
class FsckReport:
    """What :meth:`DiskCTree.fsck` found, machine-readable for tests and
    the CLI.  ``errors`` are integrity violations (``clean`` is their
    absence); ``notes`` are benign observations."""

    path: str
    deep: bool = False
    errors: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    pages: int = 0
    reachable_pages: int = 0
    free_pages: int = 0
    nodes: int = 0
    graphs: int = 0
    generation: int = 0

    @property
    def clean(self) -> bool:
        """Whether no integrity violations were found."""
        return not self.errors

    def issue(self, message: str) -> None:
        """Record one integrity violation."""
        self.errors.append(message)

    def summary(self) -> str:
        """Human-readable one-liner of the check result."""
        status = "clean" if self.clean else \
            f"{len(self.errors)} error(s) found"
        parts = [
            f"{self.path}: {status}",
            f"{self.pages} pages ({self.reachable_pages} reachable, "
            f"{self.free_pages} free)",
            f"{self.nodes} nodes, {self.graphs} graphs, "
            f"generation {self.generation}",
        ]
        if self.deep:
            parts.append("deep closure checks on")
        return ", ".join(parts)

    def lines(self) -> list[str]:
        """The full report as ``repro fsck`` prints it: the summary,
        then every note and error."""
        return [self.summary(),
                *(f"note: {note}" for note in self.notes),
                *(f"error: {error}" for error in self.errors)]


@dataclass
class DiskRecovery:
    """Combined result of :meth:`DiskCTree.recover`: the storage-level
    WAL replay plus the post-recovery integrity check."""

    storage: RecoveryReport
    fsck: Optional[FsckReport] = None

    @property
    def ok(self) -> bool:
        """Whether recovery landed on a valid committed state (trivially
        so when no committed index ever existed: nothing was lost)."""
        return not self.storage.initialized or self.fsck.clean

    def summary(self) -> str:
        """Storage replay summary plus the fsck one-liner."""
        lines = [self.storage.summary()]
        if self.fsck is not None:
            lines.append(self.fsck.summary())
        return "\n".join(lines)


class _CheckedStore(PagedNodeStore):
    """What :meth:`DiskCTree.fsck` walks the tree through: nothing kept
    resident, each record resolved (its page and overflow pages counted
    reachable, its slot claimed once) before the read, and a record that
    cannot be read back raised as a ``PersistenceError`` naming it; node
    records, leaves and ids counted."""

    def __init__(self, records: RecordStore) -> None:
        super().__init__(records, {})
        #: record id -> what claimed it; page id -> the record it holds
        #: (record pages map to None: many records share one)
        self.claims: dict[int, str] = {}
        self.pages: dict[int, Optional[int]] = {}
        self.findings: list[str] = []
        self.nodes_read = self.leaves = 0
        self.graph_ids: set[int] = set()

    def read(self, record_id: int, what: str) -> dict:
        """Record ``record_id`` (``what`` names it in a finding), parsed."""
        if record_id in self.claims:
            raise PersistenceError(
                f"{what} record {record_id}: slot already claimed by "
                f"{self.claims[record_id]}")
        self.claims[record_id] = f"{what} record {record_id}"
        try:
            home, *chain = self.records.chain_pages(record_id)
        except (PersistenceError, struct.error) as exc:
            raise PersistenceError(
                f"{what} record {record_id}: {exc}") from exc
        for page, owner in ((home, None),
                            *((page, record_id) for page in chain)):
            if self.pages.setdefault(page, owner) != owner:
                self.findings.append(
                    f"page {page} is claimed twice (again by {what} "
                    f"record {record_id})")
        try:
            return self.load_record(record_id)
        except (PersistenceError, ValueError) as exc:
            raise PersistenceError(
                f"{what} record {record_id}: unreadable: {exc}") from exc

    def load_node(self, ref: int) -> CTreeNode:
        """The node of record ``ref``, decoded afresh."""
        record = self.read(ref, "node")
        self.nodes_read += 1
        try:
            node = decode_node(record)
        except BAD_RECORD as exc:
            raise PersistenceError(
                f"node record {ref}: bad record: {exc!r}") from exc
        self.leaves += node.is_leaf
        return node

    def load_graph(self, entry: StoredEntry) -> Graph:
        """The graph a leaf entry points at."""
        self.graph_ids.add(entry.graph_id)
        record = self.read(entry.record, f"graph {entry.graph_id}")
        try:
            return decode_graph(record)
        except BAD_RECORD as exc:
            raise PersistenceError(
                f"graph {entry.graph_id}: unparseable: {exc!r}") from exc


class DiskCTree(CTreeCore):
    """A page-resident C-tree: queries read records on demand, and
    (when WAL-backed) batches of graphs can be appended and deleted
    crash-safely."""

    _METRICS = "ctree.disk"
    _META = "metadata"
    #: what :func:`~repro.ctree.saved.index_kind` calls a ``.ctp`` file
    kind = "disk"

    def __init__(self, records: RecordStore, meta: dict,
                 path: Optional[PathLike] = None) -> None:
        super().__init__(PagedNodeStore(records, meta), **meta["config"])
        self._path = path
        self._closed = False

    # ------------------------------------------------------------------
    # Construction / opening
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        tree: CTree,
        path: PathLike,
        page_size: int = 4096,
        cache_pages: int = DEFAULT_CACHE_PAGES,
        wal: bool = True,
        opener=None,
    ) -> "DiskCTree":
        """Materialize a built (in-memory) C-tree into a page file.

        With ``wal=True`` (default) a sidecar write-ahead log makes the
        index crash-safe: the create itself and every later
        :meth:`extend`, :meth:`delete_many` and :meth:`compact` become
        durable atomically at their closing checkpoint, and
        :meth:`recover` restores the last committed state after a
        crash.  ``wal=False`` keeps the seed's direct
        write-back (faster, throwaway indexes only).
        """
        pagefile = PageFile.create(path, page_size=page_size, opener=opener)
        records = cls._records(pagefile, path, cache_pages, opener,
                               WriteAheadLog.create if wal else None)
        meta, meta_record = cls._write_tree(records, tree, generation=1)
        pagefile.user_root = meta_record
        records.flush()
        return cls(records, meta, path=path)

    @staticmethod
    def _records(pagefile: PageFile, path: PathLike, cache_pages: int,
                 opener, open_wal) -> RecordStore:
        """The storage stack over an open page file: (optional) sidecar
        WAL → buffer pool → record store."""
        log = None
        if open_wal is not None:
            log = open_wal(wal_path(path), pagefile.page_size,
                           start_lsn=pagefile.last_lsn + 1, opener=opener)
        return RecordStore(BufferPool(pagefile, capacity=cache_pages,
                                      wal=log))

    @classmethod
    def open(
        cls,
        path: PathLike,
        cache_pages: int = DEFAULT_CACHE_PAGES,
        wal: bool = True,
        opener=None,
        auto_recover: bool = True,
    ) -> "DiskCTree":
        """Open an existing disk index (cold cache).

        If the sidecar WAL holds records, the previous session crashed
        mid-update; with ``auto_recover=True`` (default) the log is
        replayed to the last committed state before the index is read,
        otherwise opening fails.
        """
        if needs_recovery(path):
            if not auto_recover:
                raise PersistenceError(
                    f"{path}: write-ahead log contains records; run "
                    f"DiskCTree.recover (or `repro recover`) first"
                )
            storage_recover(path, opener=opener)
        pagefile = PageFile.open(path, opener=opener)
        records = cls._records(
            pagefile, path, cache_pages, opener,
            WriteAheadLog.open_or_create if wal else None)
        pool = records.pool
        meta_record = pagefile.user_root
        if meta_record == 0:
            pool.close()
            raise PersistenceError(f"{path}: no index metadata")
        if record_page(meta_record) == NO_PAGE:
            pool.close()   # a bare page id: record format 3 or older
            raise PersistenceError(f"{path}: {_refusal('3 or older')}")
        try:
            meta = json.loads(records.load(meta_record))
        except (json.JSONDecodeError, UnicodeDecodeError,
                PersistenceError) as exc:
            pool.close()
            raise PersistenceError(f"{path}: corrupt metadata: {exc}") from exc
        if meta.get("format") != _FORMAT:
            pool.close()
            raise PersistenceError(
                f"{path}: {_refusal(repr(meta.get('format')))}")
        return cls(records, meta, path=path)

    @classmethod
    def open_read_only(cls, path: PathLike,
                       cache_pages: int = DEFAULT_CACHE_PAGES) -> "DiskCTree":
        """Open an index that will only be queried — what the server and
        every engine worker hold.  No WAL handle is attached, and a
        crashed index is refused rather than silently recovered at serve
        time: recovery is an explicit operator action (``repro
        recover``).  Closing the handle never writes the header: a
        writer may have committed a newer one since this handle read
        it."""
        tree = cls.open(path, cache_pages=cache_pages, wal=False,
                        auto_recover=False)
        tree.pool.pagefile.defer_header = True
        return tree

    @staticmethod
    def _write_tree(records: RecordStore, tree: CTree,
                    generation: int) -> tuple[dict, int]:
        """Write every node and graph of ``tree`` as records; returns
        ``(meta, meta_record_id)``.  Nothing is durable until the
        enclosing checkpoint.  The id watermark is the tree's own, so an
        id it issued and freed is never issued again."""
        shape = {"leaf_count": 0}  # the store counts leaves as it allocates
        store = PagedNodeStore(records, shape)

        def write_node(node: CTreeNode) -> int:
            if node.is_leaf:
                children = [store.alloc_graph(entry.graph_id, entry.graph)
                            for entry in node.children]
            else:
                children = [write_node(child) for child in node.children]
            stored = CTreeNode(node.is_leaf, children)
            stored.closure = node.closure
            return store.alloc_node(stored)

        root_record = write_node(tree.root)
        meta = {
            "format": _FORMAT,
            "root": root_record,
            "graph_count": len(tree),
            "next_id": tree.store.meta["next_id"],
            "height": tree.height(),
            "leaf_count": shape["leaf_count"],
            "generation": generation,
            "config": tree.config(),
        }
        return meta, records.store(dump_record(meta))

    # ------------------------------------------------------------------
    # Mutation: the core's extend / delete_many / compact, closed here
    # ------------------------------------------------------------------
    @contextmanager
    def _batch(self, kind: str, graphs: int) -> Iterator[None]:
        """Close one ``extend`` / ``delete`` batch as a **group commit**:
        stamp the next generation, rewrite the metadata record and
        checkpoint under one ``<kind> gen=N graphs=M`` WAL note (one WAL
        commit + one fsync), bumping ``ctree.disk.group_commits``.  A
        crash at any earlier point recovers the previous generation
        intact."""
        generation = self.generation + 1
        with trace.span(f"ctree.disk.{kind}", graphs=graphs,
                        generation=generation), self.store.writing():
            yield
            self._meta["generation"] = generation
            self._write_meta()
            self.checkpoint(note=f"{kind} gen={generation} "
                            f"graphs={graphs}".encode("ascii"))
            self._counter("group_commits").inc()

    def _install(self, tree: CTree) -> None:
        """Make a re-bulk-loaded tree this index: free every record,
        write ``tree``'s as the next generation and checkpoint under a
        ``compact gen=N`` note."""
        generation = self.generation + 1
        with self.store.writing():
            for record_id in self._collect_record_ids():
                self.store.records.delete(record_id)
            self.store.forget()
            meta, meta_record = self._write_tree(
                self.store.records, tree, generation)
            self.pool.pagefile.user_root = meta_record
            self.store.meta = meta
            self.checkpoint(note=f"compact gen={generation}".encode("ascii"))

    def _write_meta(self) -> None:
        """Rewrite the metadata record in place (its id — the page
        file's user root — is stable across incremental appends)."""
        self.store.records.update(self.pool.pagefile.user_root,
                                  dump_record(self._meta))

    def checkpoint(self, note: bytes = b"") -> None:
        """Make every buffered change durable (in WAL mode: log, commit,
        transfer into the page file, truncate the log).  ``note`` is a
        diagnostic tag carried on the WAL COMMIT record — a group
        commit stamps its whole batch with one note."""
        self._check_open()
        self.store.records.flush(note)

    def _collect_record_ids(self) -> list[int]:
        """Every live record id: the metadata record plus all node and
        graph records, discovered by walking the tree."""
        records = [self.pool.pagefile.user_root]
        for ref, node in self.nodes():
            records.append(ref)
            if node.is_leaf:
                records.extend(entry.record for entry in node.children)
        return records

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def _meta(self) -> dict:
        """The index metadata (shared with the node store, which keeps
        its root / height / leaf count current)."""
        return self.store.meta

    @property
    def height(self) -> int:
        """Levels of internal nodes above the leaves."""
        return self._meta["height"]

    @property
    def generation(self) -> int:
        """Monotone counter bumped by every committed write batch."""
        return self._meta["generation"]

    @property
    def path(self) -> Optional[PathLike]:
        """Where this index lives on disk (None for exotic openers);
        the batched engine's workers reopen it read-only from here."""
        return self._path

    @property
    def pool(self) -> BufferPool:
        """The index's buffer pool (for I/O stats and flushing)."""
        return self.store.records.pool

    @property
    def file_bytes(self) -> int:
        """Bytes the page file spans: every page with its trailer, the
        header page included."""
        pagefile = self.pool.pagefile
        return pagefile.page_count * pagefile.slot_size

    def describe(self) -> dict:
        """A JSON-friendly summary (the server's ``GET /`` index block)."""
        return {"graphs": len(self), "generation": self.generation,
                "height": self.height}

    def summary(self) -> str:
        """One line for the serve banner and ``/healthz``."""
        return f"disk index, |D|={len(self)}"

    def info(self) -> str:
        """What ``repro info`` prints for a ``.ctp`` file."""
        pagefile = self.pool.pagefile
        return (f"disk C-tree index: |D|={len(self)} height={self.height} "
                f"pages={pagefile.page_count} "
                f"page_size={pagefile.page_size} bytes={self.file_bytes}")

    def health(self) -> tuple[bool, dict]:
        """The ``/healthz`` probe: a non-deep :meth:`fsck` of the page
        file this handle reads (checksums, free list, reachability,
        closure containment)."""
        if self.path is None:
            return True, {"probe": "none",
                          "note": "disk index has no stable path"}
        try:
            report = self.fsck(self.path)
        except ReproError as exc:
            return False, {"probe": "fsck", "errors": [str(exc)]}
        payload = {
            "probe": "fsck",
            "clean": report.clean,
            "pages": report.pages,
            "graphs": report.graphs,
            "generation": report.generation,
        }
        if report.errors:
            payload["errors"] = list(report.errors)
        return report.clean, payload

    # ------------------------------------------------------------------
    # Query processing — thin delegates to the shared traversals
    # ------------------------------------------------------------------
    def subgraph_query(
        self,
        query: Graph,
        level: Level = 1,
        verify: bool = True,
    ) -> tuple[list[int], DiskQueryStats]:
        """:func:`~repro.ctree.subgraph_query.subgraph_query` on this
        index (Alg. 3, reading nodes and graphs on demand)."""
        self._check_open()
        return subgraph_query(self, query, level=level, verify=verify)

    def knn_query(
        self,
        query: Graph,
        k: int,
    ) -> tuple[list[tuple[int, float]], DiskKnnStats]:
        """:func:`~repro.ctree.similarity_query.knn_query` on this index
        (Alg. 4, reading records on demand)."""
        self._check_open()
        return knn_query(self, query, k)

    # ------------------------------------------------------------------
    # Recovery / integrity checking
    # ------------------------------------------------------------------
    @classmethod
    def recover(cls, path: PathLike, opener=None,
                deep: bool = False) -> DiskRecovery:
        """Bring a crashed index back to its last committed state and
        verify it.

        Replays the sidecar WAL (:func:`repro.storage.wal.recover`),
        then runs :meth:`fsck` over the result: record ids must
        resolve, every page must be reachable or free, and every
        ancestor closure must contain the graphs below it.
        ``deep=True`` further checks each graph pseudo-isomorphic into
        every closure on its root-to-leaf path.

        Examples
        --------
        After a crash (the CLI equivalent is ``repro recover``)::

            result = DiskCTree.recover("index.ctp")
            if not result.ok:
                raise SystemExit(result.summary())
            disk = DiskCTree.open("index.ctp")   # last committed state
        """
        storage = storage_recover(path, opener=opener)
        report = None
        if storage.initialized:
            report = cls.fsck(path, deep=deep, opener=opener)
            reg = global_registry()
            reg.counter("recovery.index_validations").value += 1
        return DiskRecovery(storage=storage, fsck=report)

    @classmethod
    def fsck(cls, path: PathLike, deep: bool = False,
             opener=None) -> FsckReport:
        """Integrity-check a disk index without modifying it.

        The tree is checked by the walk :meth:`validate` runs
        (:meth:`~repro.ctree.tree.CTreeCore.check`: shape, closure
        containment along every lineage, leaf-entry histograms), with
        ``deep=True`` adding its pseudo-isomorphism test at level 1.
        Around it, what a page file adds: page checksums, a free list in
        range and acyclic, record ids that name live slots and overflow
        chains that resolve, each slot claimed once, no two records'
        bytes overlapping and no live slot left unreached, every format-4
        metadata key and counter, and live and free pages tiling the file
        exactly (so a split's free-list pages are reachable or free
        exactly once).

        The report is machine-readable and read-only to produce — the
        query server's ``/healthz`` endpoint runs exactly this
        (non-deep) probe on a timer; see ``docs/SERVING.md``.

        Examples
        --------
        ::

            report = DiskCTree.fsck("index.ctp")
            assert report.clean, report.errors
            print(report.summary())   # pages, nodes, graphs, generation
        """
        report = FsckReport(path=str(path), deep=deep)
        if needs_recovery(path):
            report.issue(
                "write-ahead log contains records; run recovery first"
            )
            return report
        try:
            pagefile = PageFile.open(path, opener=opener)
        except PersistenceError as exc:
            report.issue(f"cannot open page file: {exc}")
            return report
        # fsck is strictly read-only: suppress the header rewrite that a
        # normal close performs.
        pagefile.defer_header = True
        try:
            cls._fsck_body(
                RecordStore(BufferPool(pagefile, capacity=256)),
                report, deep)
        finally:
            pagefile.close()
        return report

    @classmethod
    def _fsck_body(cls, records: RecordStore, report: FsckReport,
                   deep: bool) -> None:
        pool = records.pool
        pagefile = pool.pagefile
        report.pages = max(pagefile.page_count - 1, 0)
        # 1. Every allocated page must pass its checksum.
        bad: set[int] = set()
        for page_id in range(1, pagefile.page_count):
            try:
                pagefile.read_page(page_id)
            except ChecksumError as exc:
                report.issue(str(exc))
                bad.add(page_id)
        # 2. The free list must stay in range and acyclic.
        free: set[int] = set()
        head = pagefile.free_head
        while head != NO_PAGE:
            if not 1 <= head < pagefile.page_count:
                report.issue(f"free list points at invalid page {head}")
                break
            if head in free:
                report.issue(f"free list cycles back to page {head}")
                break
            free.add(head)
            if head in bad:
                report.issue(f"free list runs through corrupt page {head}")
                break
            (head,) = _U64.unpack_from(pool.get(head), 0)
        report.free_pages = len(free)
        # 3. The metadata, then the tree — every record read resolves its
        # slot and overflow chain and counts their pages reachable.
        store = _CheckedStore(records)
        meta = None
        if pagefile.user_root == NO_PAGE:
            report.notes.append("empty page file: no index metadata")
        elif record_page(pagefile.user_root) == NO_PAGE:
            report.issue(f"unsupported index format 3 or older (user root "
                         f"{pagefile.user_root} is a bare page id)")
        else:
            try:
                meta = store.read(pagefile.user_root, "meta")
            except PersistenceError as exc:
                report.issue(str(exc))
        if meta is not None:
            cls._fsck_walk(store, meta, report, deep)
        report.errors += store.findings
        reachable = set(store.pages)
        report.reachable_pages = len(reachable)
        # 4. Slots: the bytes of live records overlap nowhere, and every
        # live slot on a reached record page is a record the walk reached.
        for page_id in sorted(page for page, owner in store.pages.items()
                              if owner is None and page not in bad):
            report.errors += records.page_findings(page_id, store.claims)
        # 5. Page accounting: live and free pages must tile the file.
        overlap = reachable & free
        if overlap:
            report.issue(
                f"{len(overlap)} page(s) both reachable and free "
                f"(e.g. page {min(overlap)})"
            )
        if meta is not None:
            leaked = (set(range(1, pagefile.page_count))
                      - reachable - free - bad)
            if leaked:
                report.issue(
                    f"{len(leaked)} page(s) leaked "
                    f"(e.g. page {min(leaked)})"
                )

    @classmethod
    def _fsck_walk(cls, store: _CheckedStore, meta: dict,
                   report: FsckReport, deep: bool) -> None:
        """Run the walk over the index ``meta`` describes, then check the
        metadata counters against it (a low leaf occupancy is only a note:
        the compaction trigger decides when to repack)."""
        if meta.get("format") != _FORMAT:
            report.issue(f"unsupported index format {meta.get('format')!r}")
            return
        missing = [f"metadata has no {key!r}" for key in _META_KEYS
                   if key not in meta]
        if missing:
            report.errors += missing
            return
        report.generation = meta["generation"]
        try:
            tree = cls(store.records, meta)
        except (ConfigError, TypeError) as exc:
            report.issue(f"metadata config unusable: {exc}")
            return
        store.meta = meta
        tree.store = store
        report.errors += tree.check(1 if deep else None)
        report.nodes = store.nodes_read
        report.graphs = len(store.graph_ids)
        if store.graph_ids and max(store.graph_ids) >= meta["next_id"]:
            report.issue(
                f"graph id {max(store.graph_ids)} at or above the metadata "
                f"id watermark {meta['next_id']}"
            )
        if store.leaves > 1 and tree.occupancy < DEFAULT_MIN_OCCUPANCY:
            report.notes.append(
                f"leaf occupancy {tree.occupancy:.2f} below the "
                f"compaction threshold {DEFAULT_MIN_OCCUPANCY:.2f}"
            )

    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Checkpoint all dirty state to disk (one WAL commit)."""
        self.store.records.flush()

    def close(self) -> None:
        """Flush and release the underlying storage stack."""
        if not self._closed:
            self.pool.close()
            self._closed = True

    def __enter__(self) -> "DiskCTree":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise PersistenceError("disk index is closed")

    def __repr__(self) -> str:
        return (f"<DiskCTree |D|={len(self)} height={self.height} "
                f"pages={self.pool.pagefile.page_count}>")
