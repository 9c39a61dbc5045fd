"""Saved indexes: which kinds exist, and the one way to open or check one.

An index on disk is one of two kinds, told apart by its path alone:

- ``"sharded"`` — a directory (``manifest.json`` plus per-shard ``.ctp``
  files, written by ``repro shard --create``); opens as a
  :class:`~repro.ctree.shards.ShardSet`;
- ``"disk"`` — a ``*.ctp`` page file; opens as a
  :class:`~repro.ctree.diskindex.DiskCTree`.

Any other path is a :class:`~repro.exceptions.ConfigError`.  An
in-memory :class:`~repro.ctree.tree.CTree` has no file form of its own:
``DiskCTree.create`` writes one as a page file.

:func:`open_index` is the only place that decision is made; the CLI and
the HTTP server take what it returns and never ask which class it is.
Every kind answers the same small surface instead: ``kind`` (the name
above), ``describe()`` (JSON-friendly dict), ``summary()`` (one
line), ``info()`` (the ``repro info`` text), ``health()`` (the
``/healthz`` probe: ``(healthy, detail)``) and ``close()``; and both
go to :class:`~repro.ctree.parallel.QueryEngine` for queries.
"""

from __future__ import annotations

import os
from typing import Union

from repro.ctree.diskindex import DEFAULT_CACHE_PAGES, DiskCTree, FsckReport
from repro.ctree.shards import ShardSet, ShardSetReport, fsck_shards
from repro.exceptions import ConfigError
from repro.storage.pagefile import PathLike

__all__ = ["SavedIndex", "fsck_index", "index_kind", "open_index"]

#: Anything :func:`open_index` returns.
SavedIndex = Union[DiskCTree, ShardSet]


def index_kind(path: PathLike) -> str:
    """The kind of saved index ``path`` names (see the module docstring);
    nothing is opened.  Any other path is a ``ConfigError``."""
    path = os.fspath(path)
    if os.path.isdir(path):
        return ShardSet.kind
    if path.endswith(".ctp"):
        return DiskCTree.kind
    raise ConfigError(f"{path}: not a saved index; expected a *.ctp disk "
                      f"index or a shard directory")


def open_index(path: PathLike, cache_pages: int = DEFAULT_CACHE_PAGES,
               read_only: bool = False) -> SavedIndex:
    """Open the saved index at ``path``, whatever its kind; ``close()``
    the result when done.

    ``cache_pages`` sizes a disk handle's buffer pool and its resident
    set of decoded nodes.  ``read_only`` opens a page file the way every
    command that only reads does (:meth:`DiskCTree.open_read_only
    <repro.ctree.diskindex.DiskCTree.open_read_only>`: no WAL handle,
    no silent crash recovery, no header write on close); a shard
    directory is never written through its handle.  A directory without a manifest is a
    :class:`~repro.exceptions.ConfigError`, not an ``IsADirectoryError``.
    """
    if index_kind(path) == ShardSet.kind:
        return ShardSet.open(path)
    if read_only:
        return DiskCTree.open_read_only(path, cache_pages)
    return DiskCTree.open(path, cache_pages=cache_pages)


def fsck_index(path: PathLike,
               deep: bool = False) -> Union[FsckReport, ShardSetReport]:
    """Integrity-check the saved index at ``path`` without opening or
    modifying it: :func:`~repro.ctree.shards.fsck_shards` for a
    directory, :meth:`DiskCTree.fsck
    <repro.ctree.diskindex.DiskCTree.fsck>` for a file.  Both reports
    have ``clean`` and ``lines()``."""
    if os.path.isdir(path):
        return fsck_shards(path, deep=deep)
    return DiskCTree.fsck(path, deep=deep)
