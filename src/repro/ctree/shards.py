"""Sharding: S independent C-trees behind one placement manifest.

:class:`~repro.ctree.parallel.QueryEngine` over one tree parallelizes
*within* a batch; its speedup is capped by the single index every
worker shares.  This module partitions the database itself into **S
independent C-trees** — hash placement or closure-clustering placement
(:func:`place_graphs`) — so S queries' worth of tree descent, pseudo-iso
filtering and similarity scoring run concurrently with no shared state
at all (the multicore partitioned-closure-evaluation recipe of the
recursive-query literature, applied to the paper's index):

- :class:`ShardSet` builds, persists, and reopens the partition: per-
  shard trees (in-memory :class:`~repro.ctree.tree.CTree` or on-disk
  :class:`~repro.ctree.diskindex.DiskCTree` page files) plus a JSON
  **placement manifest** mapping every global graph id to exactly one
  shard (:func:`fsck_shards` verifies this);
- :func:`merge_subgraph` and :func:`merge_knn` turn per-shard answers
  in local ids into the canonical global answer.

A ``ShardSet`` is queried by handing it to the one batch engine,
:class:`~repro.ctree.parallel.QueryEngine`, which gives each shard its
own worker process and applies the two merge functions per query; the
determinism contract (answers sorted by global id, canonical K-NN at
every S) is stated in that module's docstring.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from repro.exceptions import ConfigError, ReproError
from repro.graphs.graph import Graph
from repro.matching.edit_distance import MAPPING_METHODS
from repro.ctree.bulkload import bulk_load
from repro.ctree.diskindex import DiskCTree, FsckReport
from repro.ctree.tree import CTree

__all__ = [
    "MANIFEST_NAME",
    "PLACEMENTS",
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
#: recognized placement strategies (see :func:`place_graphs`)
PLACEMENTS = ("hash", "closure")


# ----------------------------------------------------------------------
# Placement
# ----------------------------------------------------------------------
def _place_hash(n: int, shards: int) -> list[list[int]]:
    """Round-robin by id: graph ``g`` lands on shard ``g % shards``.

    Placement-oblivious baseline: perfectly balanced in *count*, blind
    to structure, so similar graphs spread across shards and every
    query pays full fan-out.
    """
    out: list[list[int]] = [[] for _ in range(shards)]
    for gid in range(n):
        out[gid % shards].append(gid)
    return out


def _place_closure(
    graphs: Sequence[Graph],
    shards: int,
    mapping_method: str,
) -> list[list[int]]:
    """Greedy closure-clustering placement.

    Farthest-point selection picks ``shards`` medoid graphs (the same
    pivot idea as
    :func:`~repro.ctree.policies.partition_closures_linear`, and the
    same distance primitive: ``mapper(a, b).edit_cost()``).  Every
    graph then goes to the nearest medoid's shard, in ascending-id
    order, under a capacity cap of ``ceil(n / shards)`` so no shard can
    absorb the whole database — capped shards overflow to the next-
    nearest medoid.  Similar graphs cluster on the same shard, whose
    C-tree then builds tighter closures: the per-shard candidate work
    a query induces stays near ``1/S`` of the single-tree work (the
    bench's balance gate).
    """
    def distance(a: Graph, b: Graph) -> float:
        return mapper(a, b).edit_cost()

    mapper = MAPPING_METHODS[mapping_method]
    n = len(graphs)
    # Farthest-point medoids: start from graph 0, repeatedly take the
    # graph farthest from every medoid chosen so far (min-distance
    # maximization; ties to the lowest id keep placement deterministic).
    medoids = [0]
    min_dist = [distance(g, graphs[0]) for g in graphs]
    while len(medoids) < shards:
        far = max(range(n), key=lambda i: (min_dist[i], -i))
        medoids.append(far)
        for i, g in enumerate(graphs):
            d = distance(g, graphs[far])
            if d < min_dist[i]:
                min_dist[i] = d

    capacity = math.ceil(n / shards)
    out: list[list[int]] = [[] for _ in range(shards)]
    for gid in range(n):
        ranked = sorted(
            range(shards),
            key=lambda s: (distance(graphs[gid], graphs[medoids[s]]), s),
        )
        for s in ranked:
            if len(out[s]) < capacity:
                out[s].append(gid)
                break
    return out


def place_graphs(
    graphs: Sequence[Graph],
    shards: int,
    placement: str = "closure",
    mapping_method: str = "nbm",
) -> list[list[int]]:
    """Partition ``graphs`` into ``shards`` ascending-id lists.

    ``placement`` is ``"hash"`` (round-robin by id) or ``"closure"``
    (greedy medoid clustering by closure distance, capacity-capped).
    Every id appears in exactly one list; lists are ascending, which
    makes each shard's local ids (assigned 0..m-1 in input order by
    :func:`~repro.ctree.bulkload.bulk_load`) order-isomorphic to its
    global ids — the property the canonical K-NN merge relies on.
    """
    if shards < 1:
        raise ConfigError(f"need >= 1 shard, got {shards}")
    if placement not in PLACEMENTS:
        raise ConfigError(
            f"unknown placement {placement!r}; expected one of {PLACEMENTS}"
        )
    n = len(graphs)
    if shards > max(1, n):
        raise ConfigError(
            f"cannot spread {n} graphs over {shards} shards"
        )
    if placement == "hash" or shards == 1:
        return _place_hash(n, shards)
    return _place_closure(graphs, shards, mapping_method)


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
    :meth:`from_index` (the same, over an already-open index — what
    ``--shards S`` does), :meth:`create` (a directory of per-shard
    ``.ctp`` page files plus ``manifest.json`` — the persistent form
    ``repro shard --create`` writes), or :meth:`open` (reattach to such
    a directory).

    A ``ShardSet`` is accepted anywhere the serving stack accepts an
    index: :class:`~repro.ctree.parallel.QueryEngine` queries it,
    :class:`repro.server.QueryServer` serves it, and
    :func:`fsck_shards` verifies it.
    """

    def __init__(self, shards: list[Shard], placement: str,
                 mapping_method: str = "nbm",
                 directory: Optional[str] = None) -> None:
        if not shards:
            raise ConfigError("a ShardSet needs at least one shard")
        self.shards = shards
        self.placement = placement
        self.mapping_method = mapping_method
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
        placement: str = "closure",
        min_fanout: int = 20,
        mapping_method: str = "nbm",
    ) -> "ShardSet":
        """Partition ``graphs`` and bulk-load one in-memory C-tree per
        shard."""
        gid_lists = place_graphs(graphs, shards, placement, mapping_method)
        built = [
            Shard(
                gids=list(gids),
                tree=bulk_load([graphs[g] for g in gids],
                               min_fanout=min_fanout,
                               mapping_method=mapping_method),
            )
            for gids in gid_lists
        ]
        return cls(built, placement, mapping_method)

    @classmethod
    def create(
        cls,
        graphs: Sequence[Graph],
        directory: Union[str, os.PathLike],
        shards: int,
        placement: str = "closure",
        min_fanout: int = 20,
        mapping_method: str = "nbm",
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
        gid_lists = place_graphs(graphs, shards, placement, mapping_method)
        entries = []
        built: list[Shard] = []
        for s, gids in enumerate(gid_lists):
            filename = f"shard-{s:03d}.ctp"
            tree = bulk_load([graphs[g] for g in gids],
                             min_fanout=min_fanout,
                             mapping_method=mapping_method)
            path = os.path.join(directory, filename)
            DiskCTree.create(tree, path, page_size=page_size).close()
            entries.append({"file": filename, "graphs": list(gids)})
            built.append(Shard(gids=list(gids), path=path))
        manifest = {
            "schema": _MANIFEST_SCHEMA,
            "placement": placement,
            "mapping_method": mapping_method,
            "min_fanout": min_fanout,
            "total_graphs": len(graphs),
            "shards": entries,
        }
        with open(os.path.join(directory, MANIFEST_NAME), "w",
                  encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=1)
        return cls(built, placement, mapping_method, directory=directory)

    @classmethod
    def open(cls, directory: Union[str, os.PathLike]) -> "ShardSet":
        """Reattach to a shard directory written by :meth:`create`."""
        directory = os.fspath(directory)
        manifest = cls._read_manifest(directory)
        built = [
            Shard(gids=list(entry["graphs"]),
                  path=os.path.join(directory, entry["file"]))
            for entry in manifest["shards"]
        ]
        return cls(built, manifest["placement"],
                   manifest.get("mapping_method", "nbm"),
                   directory=directory)

    @classmethod
    def from_index(
        cls,
        index: Union[CTree, DiskCTree],
        shards: int,
        placement: str = "closure",
        min_fanout: int = 20,
        mapping_method: str = "nbm",
    ) -> "ShardSet":
        """Re-partition an already-open single-tree index into an
        in-memory shard set (the CLI's ``--shards S``).

        Graphs are taken from the index in id order, so global ids are
        preserved; for a disk index the partition is built over the
        *stored* (round-tripped) graphs, keeping similarity values
        consistent with what the single disk tree itself would compute.
        """
        stored = sorted(index.iter_graphs())
        if not stored:
            raise ConfigError("cannot shard an empty index")
        gids = [gid for gid, _ in stored]
        if gids != list(range(len(gids))):
            raise ConfigError(
                "sharding requires dense graph ids 0..n-1 "
                "(compact the index first)"
            )
        return cls.build_memory([g for _, g in stored], shards,
                                placement=placement, min_fanout=min_fanout,
                                mapping_method=mapping_method)

    # -- introspection -------------------------------------------------
    @staticmethod
    def _read_manifest(directory: str) -> dict:
        path = os.path.join(directory, MANIFEST_NAME)
        try:
            with open(path, encoding="utf-8") as fh:
                manifest = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"no shard manifest at {path}") from None
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
        payload)."""
        return {
            "shards": self.shard_count,
            "placement": self.placement,
            "mapping_method": self.mapping_method,
            "backend": "disk" if self.is_disk else "memory",
            "directory": self.directory,
            "total_graphs": len(self),
            "shard_sizes": self.shard_sizes(),
        }

    def open_local(self, cache_pages: int = 128) \
            -> list[Union[CTree, DiskCTree]]:
        """Open (or return) one read-only handle per shard in this
        process — the engine's in-process path and the CLI's serial
        baseline.  Pair with :meth:`close_local`."""
        return [
            shard.tree if shard.tree is not None
            else DiskCTree.open(shard.path, cache_pages=cache_pages,
                                wal=False, auto_recover=False)
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
    the union sorted ascending (the canonical answer-set form)."""
    merged = [
        shardset.shards[s].gids[local]
        for s, answers in enumerate(per_shard)
        for local in answers
    ]
    merged.sort()
    return merged


def merge_knn(per_shard: list[list[tuple[int, float]]],
              shardset: ShardSet, k: int) -> list[tuple[int, float]]:
    """Merge per-shard canonical K-NN lists into the global canonical
    top-k under ``(-similarity, global_id)``.

    Correct because each shard list is its shard's exact top-k under
    that total order and local ids translate monotonically to global
    ids (ascending manifest lists): if x is in the global canonical
    top-k, fewer than k graphs precede it globally, hence fewer than k
    in its own shard, so x is in its shard's top-k — the union of the
    per-shard lists contains the global top-k.
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
    # one.  Goes when the spine next changes (ROADMAP item 6).
    if name == "ShardedEngine":
        from repro.ctree.parallel import QueryEngine

        return QueryEngine
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
