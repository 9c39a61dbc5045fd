"""Sharding: S independent C-trees behind one placement manifest.

:class:`~repro.ctree.parallel.QueryEngine` over one tree parallelizes
*within* a batch; its speedup is capped by the single index every
worker shares.  This module partitions the database itself into **S
independent C-trees** — round-robin by graph id (:func:`place_graphs`)
— so S queries' worth of tree descent, pseudo-iso
filtering and similarity scoring run concurrently with no shared state
at all (the multicore partitioned-closure-evaluation recipe of the
recursive-query literature, applied to the paper's index):

- :class:`ShardSet` builds, persists, and reopens the partition: per-
  shard trees (in-memory :class:`~repro.ctree.tree.CTree` or on-disk
  :class:`~repro.ctree.diskindex.DiskCTree` page files) plus a JSON
  **placement manifest** mapping every global graph id to exactly one
  shard (:func:`fsck_shards` verifies this);
- :func:`merge_subgraph` and :func:`merge_knn` turn per-shard answers
  in local ids into the global answer.

A ``ShardSet`` is queried by handing it to the one batch engine,
:class:`~repro.ctree.parallel.QueryEngine`, which gives each shard its
own worker process and applies the two merge functions per query, so
a shard set answers exactly as one tree over the whole database does
(the determinism contract of that module's docstring).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from repro.exceptions import ConfigError, ReproError
from repro.graphs.graph import Graph
from repro.ctree.bulkload import bulk_load
from repro.ctree.diskindex import DEFAULT_CACHE_PAGES, DiskCTree, FsckReport
from repro.ctree.tree import CTree

__all__ = [
    "MANIFEST_NAME",
    "Shard",
    "ShardSet",
    "ShardSetReport",
    "fsck_shards",
    "merge_knn",
    "merge_subgraph",
    "place_graphs",
]

MANIFEST_NAME = "manifest.json"
_MANIFEST_SCHEMA = "ctree-shards-v1"


# ----------------------------------------------------------------------
# Placement
# ----------------------------------------------------------------------
def place_graphs(graphs: Sequence[Graph], shards: int) -> list[list[int]]:
    """Partition ``graphs`` into ``shards`` ascending-id lists, round-
    robin by id: graph ``g`` lands on shard ``g % shards``.

    Balanced in count to within one graph, and blind to structure — on
    the measured corpus that also balances per-shard candidate work
    (docs/PERFORMANCE.md, "Sharding").  Every id appears in exactly one
    list; lists are ascending, which makes each shard's local ids
    (assigned 0..m-1 in input order by
    :func:`~repro.ctree.bulkload.bulk_load`) order-isomorphic to its
    global ids — the property the K-NN merge relies on.
    """
    if shards < 1:
        raise ConfigError(f"need >= 1 shard, got {shards}")
    n = len(graphs)
    if shards > max(1, n):
        raise ConfigError(
            f"cannot spread {n} graphs over {shards} shards"
        )
    return [list(range(s, n, shards)) for s in range(shards)]


def _bulk_load_parts(graphs: Sequence[Graph], shards: int, min_fanout: int):
    """``(global ids, bulk-loaded tree)`` per shard, one at a time."""
    for gids in place_graphs(graphs, shards):
        yield gids, bulk_load([graphs[g] for g in gids],
                              min_fanout=min_fanout)


# ----------------------------------------------------------------------
# Shard sets
# ----------------------------------------------------------------------
@dataclass
class Shard:
    """One partition: its global graph ids (ascending — index = local
    id) and its index, either in memory (``tree``) or on disk
    (``path``)."""

    gids: list[int]
    tree: Optional[CTree] = None
    path: Optional[str] = None

    def __len__(self) -> int:
        return len(self.gids)


class ShardSet:
    """S independent C-trees plus the placement manifest that maps
    every global graph id to exactly one of them.

    Build one with :meth:`build_memory` (per-shard in-memory trees),
    :meth:`create` (a directory of per-shard ``.ctp`` page files plus
    ``manifest.json`` — the persistent form ``repro shard --create``
    writes), or :meth:`open` (reattach to such a directory).

    A ``ShardSet`` is accepted anywhere the serving stack accepts an
    index: :class:`~repro.ctree.parallel.QueryEngine` queries it,
    :class:`repro.server.QueryServer` serves it, and
    :func:`fsck_shards` verifies it.
    """

    #: what :func:`~repro.ctree.saved.index_kind` calls a shard directory
    kind = "sharded"

    def __init__(self, shards: list[Shard],
                 directory: Optional[str] = None) -> None:
        if not shards:
            raise ConfigError("a ShardSet needs at least one shard")
        self.shards = shards
        self.directory = directory
        seen: set[int] = set()
        for shard in shards:
            for gid in shard.gids:
                if gid in seen:
                    raise ConfigError(
                        f"graph id {gid} placed on more than one shard"
                    )
                seen.add(gid)

    # -- construction --------------------------------------------------
    @classmethod
    def build_memory(
        cls,
        graphs: Sequence[Graph],
        shards: int,
        placement: str = "hash",
        min_fanout: int = 20,
    ) -> "ShardSet":
        """Partition ``graphs`` and bulk-load one in-memory C-tree per
        shard.

        ``placement`` is not a setting: benchmarks/spine/layers.py
        passes ``"hash"``, the name round-robin placement had while
        there was a second one, and nothing else is accepted.  Goes when
        the spine next changes (ROADMAP item 1(c)).
        """
        if placement != "hash":
            raise ConfigError(
                f"unknown placement {placement!r}; graphs are placed "
                f"round-robin by id ('hash')"
            )
        return cls([Shard(gids=gids, tree=tree) for gids, tree in
                    _bulk_load_parts(graphs, shards, min_fanout)])

    @classmethod
    def create(
        cls,
        graphs: Sequence[Graph],
        directory: Union[str, os.PathLike],
        shards: int,
        min_fanout: int = 20,
        page_size: int = 4096,
    ) -> "ShardSet":
        """Partition ``graphs`` into a shard directory: one ``.ctp``
        page file per shard plus ``manifest.json``.

        The per-shard page files are ordinary
        :class:`~repro.ctree.diskindex.DiskCTree` indexes (WAL'd,
        fsck-able, recoverable individually); the manifest records the
        placement so :meth:`open` and :func:`fsck_shards` can map local
        ids back to global ones.
        """
        directory = os.fspath(directory)
        os.makedirs(directory, exist_ok=True)
        entries = []
        built: list[Shard] = []
        for s, (gids, tree) in enumerate(_bulk_load_parts(
                graphs, shards, min_fanout)):
            filename = f"shard-{s:03d}.ctp"
            path = os.path.join(directory, filename)
            DiskCTree.create(tree, path, page_size=page_size).close()
            entries.append({"file": filename, "graphs": gids})
            built.append(Shard(gids=gids, path=path))
        manifest = {
            "schema": _MANIFEST_SCHEMA,
            "min_fanout": min_fanout,
            "total_graphs": len(graphs),
            "shards": entries,
        }
        with open(os.path.join(directory, MANIFEST_NAME), "w",
                  encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=1)
        return cls(built, directory=directory)

    @classmethod
    def open(cls, directory: Union[str, os.PathLike]) -> "ShardSet":
        """Reattach to a shard directory written by :meth:`create`.

        Only the per-shard id lists are read, so a manifest from before
        round-robin became the one placement (it carries a
        ``"placement"`` key, possibly ``"closure"``) or from before NBM
        became the one mapping (it names its build mapper) opens
        unchanged.
        """
        directory = os.fspath(directory)
        manifest = cls._read_manifest(directory)
        built = [
            Shard(gids=list(entry["graphs"]),
                  path=os.path.join(directory, entry["file"]))
            for entry in manifest["shards"]
        ]
        return cls(built, directory=directory)

    # -- introspection -------------------------------------------------
    @staticmethod
    def _read_manifest(directory: str) -> dict:
        path = os.path.join(directory, MANIFEST_NAME)
        try:
            with open(path, encoding="utf-8") as fh:
                manifest = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"{directory}: not a shard directory: "
                              f"no {MANIFEST_NAME}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"corrupt shard manifest {path}: {exc}") \
                from None
        if manifest.get("schema") != _MANIFEST_SCHEMA:
            raise ConfigError(
                f"unsupported shard manifest schema "
                f"{manifest.get('schema')!r} at {path}"
            )
        return manifest

    @property
    def is_disk(self) -> bool:
        """Whether the shards live in page files (vs in-memory trees)."""
        return self.shards[0].path is not None

    @property
    def backend(self) -> str:
        """``"disk"`` or ``"memory"``: where the shards live."""
        return "disk" if self.is_disk else "memory"

    @property
    def shard_count(self) -> int:
        """Number of shards S."""
        return len(self.shards)

    def __len__(self) -> int:
        return sum(len(shard) for shard in self.shards)

    def shard_sizes(self) -> list[int]:
        """Graphs per shard, in shard order."""
        return [len(shard) for shard in self.shards]

    def describe(self) -> dict:
        """A JSON-friendly summary (the ``repro shard --stats``
        payload and the server's ``GET /`` index block)."""
        return {
            "shards": self.shard_count,
            "backend": self.backend,
            "directory": self.directory,
            "total_graphs": len(self),
            "shard_sizes": self.shard_sizes(),
        }

    def summary(self) -> str:
        """One line for the serve banner and ``/healthz``."""
        return (f"sharded {self.backend} index, S={self.shard_count}, "
                f"|D|={len(self)}")

    def info(self) -> str:
        """What ``repro info`` prints for a shard directory."""
        return (f"sharded {self.backend} index: |D|={len(self)} "
                f"shards={self.shard_count}\n"
                f"shard sizes: {self.shard_sizes()}")

    def health(self) -> tuple[bool, dict]:
        """The ``/healthz`` probe: the full :func:`fsck_shards` sweep
        (manifest placement plus one fsck per shard) for a shard
        directory, each tree's own shape check for in-memory shards."""
        if self.is_disk and self.directory is not None:
            try:
                report = fsck_shards(self.directory)
            except ReproError as exc:
                return False, {"probe": "fsck_shards", "errors": [str(exc)]}
            payload = {
                "probe": "fsck_shards",
                "clean": report.clean,
                "shards": report.shard_count,
                "graphs": report.total_graphs,
                "shard_clean": [r.clean for r in report.reports],
            }
            errors = list(report.errors)
            for shard_report in report.reports:
                errors.extend(shard_report.errors)
            if errors:
                payload["errors"] = errors
            return report.clean, payload
        healthy = all(shard.tree is not None and shard.tree.health()[0]
                      for shard in self.shards)
        return healthy, {
            "probe": "memory",
            "shards": self.shard_count,
            "graphs": len(self),
            "shard_sizes": self.shard_sizes(),
        }

    def find_graphs(self, graph_ids) -> dict[int, Graph]:
        """The stored graphs with the given global ids; only the shards
        the manifest places one of them on are read."""
        wanted = set(graph_ids)
        found: dict[int, Graph] = {}
        for shard in self.shards:
            held = {local: gid for local, gid in enumerate(shard.gids)
                    if gid in wanted}
            if not held:
                continue
            if shard.tree is not None:
                graphs = shard.tree.find_graphs(held)
            else:
                with DiskCTree.open_read_only(shard.path) as tree:
                    graphs = tree.find_graphs(held)
            found.update((held[local], g) for local, g in graphs.items())
        return found

    def close(self) -> None:
        """Nothing to release: a set holds placement, not handles (those
        belong to whoever called :meth:`open_local`)."""

    def open_local(self, cache_pages: int = DEFAULT_CACHE_PAGES) \
            -> list[Union[CTree, DiskCTree]]:
        """Open (or return) one read-only handle per shard in this
        process — the engine's in-process path.  Pair with
        :meth:`close_local`."""
        return [
            shard.tree if shard.tree is not None
            else DiskCTree.open_read_only(shard.path, cache_pages)
            for shard in self.shards
        ]

    def close_local(self, handles: list) -> None:
        """Close the disk handles :meth:`open_local` opened (in-memory
        trees belong to the set and stay)."""
        for handle, shard in zip(handles, self.shards):
            if shard.tree is None:
                handle.close()


# ----------------------------------------------------------------------
# Integrity checking
# ----------------------------------------------------------------------
@dataclass
class ShardSetReport:
    """What :func:`fsck_shards` found: per-shard
    :class:`~repro.ctree.diskindex.FsckReport` objects plus manifest-
    level placement errors."""

    directory: str
    reports: list[FsckReport] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    shard_count: int = 0
    total_graphs: int = 0

    @property
    def clean(self) -> bool:
        """No placement errors and every shard's own fsck is clean."""
        return not self.errors and all(r.clean for r in self.reports)

    def summary(self) -> str:
        """Human-readable one-liner (the CLI output)."""
        status = "clean" if self.clean else (
            f"{len(self.errors) + sum(len(r.errors) for r in self.reports)}"
            " error(s) found"
        )
        return (f"{self.directory}: {status}, {self.shard_count} shards, "
                f"{self.total_graphs} graphs")

    def lines(self) -> list[str]:
        """The full report as ``repro fsck`` prints it: the summary,
        each shard's own report indented beneath it, then the placement
        errors."""
        return [self.summary(),
                *(f"  {line}" for r in self.reports for line in r.lines()),
                *(f"error: {error}" for error in self.errors)]


def fsck_shards(directory: Union[str, os.PathLike],
                deep: bool = False) -> ShardSetReport:
    """Verify a shard directory end to end.

    Every shard page file gets a full
    :meth:`DiskCTree.fsck <repro.ctree.diskindex.DiskCTree.fsck>` (pass
    ``deep=True`` for closure-containment checks), and the placement
    manifest is verified against them: every global graph id on exactly
    one shard, and every shard holding exactly the graph count its
    manifest entry promises.
    """
    directory = os.fspath(directory)
    report = ShardSetReport(directory=directory)
    try:
        manifest = ShardSet._read_manifest(directory)
    except ConfigError as exc:
        report.errors.append(str(exc))
        return report
    entries = manifest.get("shards", [])
    report.shard_count = len(entries)
    seen: dict[int, int] = {}
    placed = 0
    for s, entry in enumerate(entries):
        path = os.path.join(directory, entry["file"])
        gids = list(entry["graphs"])
        placed += len(gids)
        for gid in gids:
            if gid in seen:
                report.errors.append(
                    f"graph {gid} placed on shards {seen[gid]} and {s}"
                )
            seen[gid] = s
        if sorted(gids) != gids:
            report.errors.append(f"shard {s}: manifest ids not ascending")
        try:
            shard_report = DiskCTree.fsck(path, deep=deep)
        except ReproError as exc:
            broken = FsckReport(path=path, deep=deep)
            broken.issue(f"fsck failed: {exc}")
            report.reports.append(broken)
            continue
        report.reports.append(shard_report)
        if shard_report.graphs != len(gids):
            report.errors.append(
                f"shard {s}: page file holds {shard_report.graphs} "
                f"graphs, manifest places {len(gids)}"
            )
    report.total_graphs = placed
    expected = manifest.get("total_graphs")
    if expected is not None and expected != len(seen):
        report.errors.append(
            f"manifest places {len(seen)} distinct graphs, "
            f"declares {expected}"
        )
    return report


# ----------------------------------------------------------------------
# Merging
# ----------------------------------------------------------------------
def merge_subgraph(per_shard: list[list[int]],
                   shardset: ShardSet) -> list[int]:
    """Translate per-shard local answer ids to global ids and return
    the union sorted ascending."""
    merged = [
        shardset.shards[s].gids[local]
        for s, answers in enumerate(per_shard)
        for local in answers
    ]
    merged.sort()
    return merged


def merge_knn(per_shard: list[list[tuple[int, float]]],
              shardset: ShardSet, k: int) -> list[tuple[int, float]]:
    """Merge per-shard K-NN lists into the global top-k under
    ``(-similarity, global_id)``.

    Correct because each shard list is its shard's exact top-k under
    that total order and local ids translate monotonically to global
    ids (ascending manifest lists): if x is in the global top-k, fewer
    than k graphs precede it globally, hence fewer than k in its own
    shard, so x is in its shard's top-k — the union of the per-shard
    lists contains the global top-k.
    """
    merged = [
        (shardset.shards[s].gids[local], sim)
        for s, results in enumerate(per_shard)
        for local, sim in results
    ]
    merged.sort(key=lambda t: (-t[1], t[0]))
    return merged[:k]


def __getattr__(name: str):
    # ``ShardedEngine = QueryEngine``: the name benchmarks/spine/layers.py
    # imports, resolved on access because the engine module imports this
    # one.  Goes when the spine next changes (ROADMAP item 1(c)).
    if name == "ShardedEngine":
        from repro.ctree.parallel import QueryEngine

        return QueryEngine
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
