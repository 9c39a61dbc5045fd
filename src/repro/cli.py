"""Command-line interface: ``python -m repro <command>``.

Gives the library's main workflows a shell-level surface:

- ``generate`` — write a chemical-like or synthetic graph database (JSONL);
- ``build``    — build a C-tree over a database and save it (JSON snapshot
  or a page-file disk index);
- ``query``    — run a subgraph query (or a JSONL batch of them, with
  ``--batch``/``--workers``) against a saved index; ``--shards S`` (or
  a shard directory as the index) answers from S partitions, one
  process each;
- ``shard``    — partition a database into a directory of per-shard
  ``.ctp`` indexes plus a placement manifest (``--create``), or
  summarize one (``--stats``);
- ``knn`` / ``range`` — similarity queries against a saved index;
- ``bench``    — serve a JSONL query batch serially and through the
  batched engine at several worker counts, verify the answers are
  identical, and print a throughput table;
- ``serve``    — HTTP server over a saved index: batched ``/query`` and
  ``/knn`` endpoints with request coalescing, Prometheus ``/metrics``,
  and an fsck-backed ``/healthz`` (full reference in docs/SERVING.md);
- ``info``     — statistics of a database or saved index;
- ``recover``  — replay a disk index's write-ahead log after a crash and
  validate the result;
- ``fsck``     — integrity-check a disk index (checksums, page
  accounting, closure containment) or a shard directory (per-shard
  fsck plus placement-manifest verification);
- ``trace``    — run a subgraph query with span tracing on, writing a
  JSONL or Chrome trace-event file (or summarize/convert an existing
  trace file);
- ``explain``  — run a subgraph or k-NN query and print its EXPLAIN
  profile: per-level node visits and pruning, verification cost, and
  (for disk indexes) buffer-pool hits;
- ``metrics``  — run a subgraph query and show the metrics-registry
  delta it caused (sorted table, or JSON with ``--json``).

Graphs on the command line are JSON, either inline or ``@file``:

    python -m repro query -t tree.json -q '{"labels": ["C", "O"], "edges": [[0, 1]]}'
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Optional, Sequence

from repro.exceptions import IndexError_, ReproError
from repro.graphs.graph import Graph
from repro.graphs.io import load_graph_database, save_graph_database
from repro.ctree.bulkload import bulk_load
from repro.ctree.diskindex import (
    DEFAULT_HEIGHT_SLACK,
    DEFAULT_MIN_OCCUPANCY,
    DiskCTree,
)
from repro.ctree.parallel import QueryEngine
from repro.ctree.persistence import index_size_bytes, load_tree, save_tree
from repro.ctree.shards import (
    MANIFEST_NAME,
    PLACEMENTS,
    ShardSet,
    fsck_shards,
    merge_subgraph,
)
from repro.ctree.similarity_query import range_query
from repro.ctree.subgraph_query import subgraph_query
from repro.datasets.chemical import generate_chemical_database
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic_database
from repro.obs import trace as obs_trace
from repro.obs.metrics import global_registry


def _parse_level(text: str):
    return text if text == "max" else int(text)


def _load_query_graph(spec: str) -> Graph:
    """Parse a query graph: inline JSON or ``@path/to/file.json``."""
    if spec.startswith("@"):
        text = Path(spec[1:]).read_text(encoding="utf-8")
    else:
        text = spec
    try:
        return Graph.from_dict(json.loads(text))
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise SystemExit(f"error: malformed query graph: {exc}")


def _is_shard_dir(path: str) -> bool:
    """True when ``path`` is a shard directory (``manifest.json``
    written by ``repro shard --create``)."""
    p = Path(path)
    return p.is_dir() and (p / MANIFEST_NAME).is_file()


@contextmanager
def _open_index(path: str, cache_pages: int = 128):
    """A saved index — a JSON snapshot, a ``.ctp`` page file, or a shard
    directory — open for one command (a disk handle is closed after)."""
    if _is_shard_dir(path):
        index = ShardSet.open(path)
    elif path.endswith(".ctp"):
        index = DiskCTree.open(path, cache_pages=cache_pages)
    else:
        index = load_tree(path)
    try:
        yield index
    finally:
        if isinstance(index, DiskCTree):
            index.close()


def _maybe_shard(index, args):
    """Re-partition a single-tree index when ``--shards S`` asks for it.

    A shard directory is already a :class:`ShardSet`; otherwise
    ``S > 1`` builds an in-memory partition over the open index (the
    original handle stays owned by — and is closed by — the caller).
    """
    shards = getattr(args, "shards", 1)
    if isinstance(index, ShardSet) or shards <= 1:
        return index
    return ShardSet.from_index(index, shards,
                               placement=getattr(args, "placement",
                                                 "closure"))


def _query_once(index, query, level, verify: bool, cache_pages: int):
    """One subgraph query against any index kind (tree/disk/sharded)."""
    with QueryEngine(index, cache_pages=cache_pages) as engine:
        return engine.query_many([query], level=level, verify=verify)[0]


def _knn_once(index, query, k: int, cache_pages: int):
    """One K-NN query against any index kind (tree/disk/sharded)."""
    with QueryEngine(index, cache_pages=cache_pages) as engine:
        return engine.knn_many([query], k)[0]


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def cmd_generate(args: argparse.Namespace) -> int:
    if args.kind == "chemical":
        graphs = generate_chemical_database(args.count, seed=args.seed)
    else:
        config = SyntheticConfig(
            num_graphs=args.count,
            num_seeds=args.seeds,
            seed_mean_size=args.seed_size,
            graph_mean_size=args.graph_size,
            num_labels=args.labels,
        )
        graphs = generate_synthetic_database(config, seed=args.seed)
    count = save_graph_database(graphs, args.output)
    avg_v = sum(g.num_vertices for g in graphs) / max(count, 1)
    print(f"wrote {count} graphs (avg |V|={avg_v:.1f}) to {args.output}")
    return 0


def cmd_append(args: argparse.Namespace) -> int:
    """Append a JSONL database to a ``.ctp`` disk index incrementally."""
    graphs = load_graph_database(args.input)
    if not args.index.endswith(".ctp"):
        raise SystemExit("error: append requires a .ctp disk index")
    with DiskCTree.open(args.index, cache_pages=args.cache_pages) as disk:
        start = time.perf_counter()
        ids = disk.extend(graphs, seed=args.seed)
        seconds = time.perf_counter() - start
        if ids:
            print(f"appended {len(ids)} graph(s) (incremental, one group "
                  f"commit) in {seconds:.2f}s: ids {ids[0]}..{ids[-1]}")
        else:
            print("nothing to append")
        print(f"index now holds {len(disk)} graphs at generation "
              f"{disk.generation}, height {disk.height}")
    return 0


def cmd_delete(args: argparse.Namespace) -> int:
    """Delete graphs from a ``.ctp`` disk index by id, incrementally,
    under one group commit (with automatic compaction unless
    ``--no-compact``)."""
    if not args.index.endswith(".ctp"):
        raise SystemExit("error: delete requires a .ctp disk index")
    try:
        ids = [int(token) for token in args.ids.replace(",", " ").split()]
    except ValueError:
        raise SystemExit(f"error: malformed id list {args.ids!r}") from None
    if not ids:
        raise SystemExit("error: no graph ids given")
    with DiskCTree.open(args.index, cache_pages=args.cache_pages) as disk:
        start = time.perf_counter()
        try:
            disk.delete_many(ids, seed=args.seed,
                             auto_compact=not args.no_compact)
        except IndexError_ as exc:
            raise SystemExit(f"error: {exc}") from None
        seconds = time.perf_counter() - start
        print(f"deleted {len(ids)} graph(s) (one group commit) "
              f"in {seconds:.2f}s")
        print(f"index now holds {len(disk)} graphs at generation "
              f"{disk.generation}, height {disk.height}, "
              f"occupancy {disk.occupancy:.2f}")
    return 0


def cmd_compact(args: argparse.Namespace) -> int:
    """Repack a degraded ``.ctp`` disk index (no-op while the
    occupancy/height triggers are healthy; ``--force`` overrides)."""
    if not args.index.endswith(".ctp"):
        raise SystemExit("error: compact requires a .ctp disk index")
    with DiskCTree.open(args.index, cache_pages=args.cache_pages) as disk:
        start = time.perf_counter()
        reason = disk.compact(
            seed=args.seed,
            force=args.force,
            min_occupancy=args.min_occupancy,
            height_slack=args.height_slack,
        )
        seconds = time.perf_counter() - start
        if reason is None:
            print("no compaction needed "
                  f"(occupancy {disk.occupancy:.2f}, height {disk.height})")
        else:
            print(f"compacted ({reason}) in {seconds:.2f}s: "
                  f"occupancy {disk.occupancy:.2f}, height {disk.height}, "
                  f"generation {disk.generation}")
    return 0


def cmd_build(args: argparse.Namespace) -> int:
    graphs = load_graph_database(args.input)
    start = time.perf_counter()
    tree = bulk_load(
        graphs,
        min_fanout=args.min_fanout,
        mapping_method=args.mapping,
        seed=args.seed,
    )
    build_seconds = time.perf_counter() - start
    if args.output.endswith(".ctp"):
        DiskCTree.create(
            tree, args.output, page_size=args.page_size,
            cache_pages=args.cache_pages,
        ).close()
        kind = "disk index"
    else:
        save_tree(tree, args.output)
        kind = "JSON snapshot"
    print(
        f"built C-tree over {len(tree)} graphs in {build_seconds:.2f}s "
        f"(height={tree.height()}, nodes={tree.node_count()}, "
        f"{index_size_bytes(tree)} bytes) -> {kind} {args.output}"
    )
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    if bool(args.query) == bool(args.batch):
        raise SystemExit("error: provide exactly one of -q/--query "
                         "or --batch")
    with _open_index(args.tree, args.cache_pages) as base:
        index = _maybe_shard(base, args)
        if args.batch:
            return _run_query_batch(args, index)
        query = _load_query_graph(args.query)
        answers, stats = _query_once(
            index, query, args.level, not args.no_verify, args.cache_pages
        )
    label = "candidates" if args.no_verify else "answers"
    print(f"{label}: {sorted(answers)}")
    print(
        f"|CS|={stats.candidates} |Ans|={stats.answers} "
        f"accuracy={stats.accuracy:.0%} gamma={stats.access_ratio:.2f} "
        f"search={stats.search_seconds:.3f}s verify={stats.verify_seconds:.3f}s"
    )
    return 0


def _run_query_batch(args: argparse.Namespace, index) -> int:
    """``repro query --batch``: serve a JSONL file of query graphs
    through the batched engine."""
    queries = load_graph_database(args.batch)
    if not queries:
        print("empty batch")
        return 0
    with QueryEngine(index, workers=args.workers,
                     cache_size=args.cache_size,
                     cache_pages=args.cache_pages) as engine:
        results = engine.query_many(
            queries, level=args.level, verify=not args.no_verify
        )
        report = engine.last_batch
    label = "candidates" if args.no_verify else "answers"
    for pos, (answers, _) in enumerate(results):
        print(f"[{pos}] {label}: {sorted(answers)}")
    print(
        f"{report.queries} queries in {report.wall_seconds:.3f}s "
        f"({report.throughput:.1f} q/s) workers={report.workers} "
        f"dispatched={report.dispatched} cache_hits={report.cache_hits}"
    )
    return 0


def _sharded_serial_baseline(shardset: ShardSet, queries, level,
                             cache_pages: int):
    """The serial reference for a shard directory: every shard queried
    in-process, answers merged to the canonical (sorted) form."""
    handles = shardset.open_local(cache_pages)
    try:
        serial = []
        for q in queries:
            per_shard = [subgraph_query(handle, q, level=level)[0]
                         for handle in handles]
            serial.append(merge_subgraph(per_shard, shardset))
        return serial
    finally:
        shardset.close_local(handles)


def cmd_bench(args: argparse.Namespace) -> int:
    """Serve one query batch serially and through the engine at each
    requested worker count (a shard set runs once: its pool is one
    process per shard whatever ``--workers`` says); gate on identical
    answers."""
    queries = load_graph_database(args.queries)
    if not queries:
        raise SystemExit("error: empty query batch")
    try:
        workers_list = [int(w) for w in args.workers.split(",")]
    except ValueError:
        raise SystemExit(f"error: bad --workers list: {args.workers!r}")
    rows = []
    with _open_index(args.tree, args.cache_pages) as base:
        index = _maybe_shard(base, args)
        sharded = isinstance(index, ShardSet)
        start = time.perf_counter()
        if isinstance(base, ShardSet):
            baseline = _sharded_serial_baseline(base, queries, args.level,
                                                args.cache_pages)
        else:
            baseline = [subgraph_query(base, q, level=args.level)[0]
                        for q in queries]
        serial_seconds = time.perf_counter() - start
        if sharded:
            # Sharded answers come back in canonical sorted form; the
            # identical-answers gate compares set content, not the
            # single tree's traversal order.
            baseline = [sorted(answers) for answers in baseline]
        print(f"serial loop: {len(queries)} queries in "
              f"{serial_seconds:.3f}s "
              f"({len(queries) / serial_seconds:.1f} q/s)")
        benched: set[int] = set()
        for w in workers_list:
            with QueryEngine(index, workers=w, cache_size=args.cache_size,
                             cache_pages=args.cache_pages) as engine:
                if engine.workers in benched:
                    continue  # same pool as an earlier run
                benched.add(engine.workers)
                results = engine.query_many(queries, level=args.level)
                report = engine.last_batch
            identical = [answers for answers, _ in results] == baseline
            speedup = (serial_seconds / report.wall_seconds
                       if report.wall_seconds else 0.0)
            rows.append({
                "workers": engine.workers, "seconds": report.wall_seconds,
                "throughput": report.throughput, "speedup": speedup,
                "cache_hit_rate": report.cache_hit_rate,
                "dispatched": report.dispatched, "identical": identical,
            })
            print(f"workers={engine.workers}: {report.wall_seconds:.3f}s "
                  f"({report.throughput:.1f} q/s, {speedup:.2f}x serial) "
                  f"hit_rate={report.cache_hit_rate:.0%} "
                  f"identical={'yes' if identical else 'NO'}")
    if args.json:
        payload = {
            "queries": len(queries),
            "level": str(args.level),
            "cache_size": args.cache_size,
            "shards": index.shard_count if sharded else 1,
            "serial_seconds": serial_seconds,
            "runs": rows,
        }
        Path(args.json).write_text(
            json.dumps(payload, indent=2) + "\n", encoding="utf-8"
        )
        print(f"wrote {args.json}")
    if not all(row["identical"] for row in rows):
        print("error: engine answers differ from the serial loop",
              file=sys.stderr)
        return 1
    return 0


def cmd_knn(args: argparse.Namespace) -> int:
    query = _load_query_graph(args.query)
    with _open_index(args.tree, args.cache_pages) as index:
        results, stats = _knn_once(index, query, args.k, args.cache_pages)
        # A shard set holds no graph names, only the id placement.
        names = {} if isinstance(index, ShardSet) \
            else dict(index.iter_graphs())
        for rank, (gid, similarity) in enumerate(results, start=1):
            graph = names.get(gid)
            name = graph.name if graph is not None and graph.name \
                else f"graph-{gid}"
            print(f"{rank:3d}. #{gid} {name} sim={similarity:.1f}")
        print(f"accessed {stats.access_ratio:.0%} of the database "
              f"in {stats.seconds:.3f}s")
    return 0


def cmd_range(args: argparse.Namespace) -> int:
    query = _load_query_graph(args.query)
    with _open_index(args.tree) as index:
        if isinstance(index, ShardSet):
            raise SystemExit("error: range queries need a single-tree index")
        results, stats = range_query(index, query, args.radius)
        names = dict(index.iter_graphs())
    for gid, distance in results:
        name = names[gid].name or f"graph-{gid}"
        print(f"#{gid} {name} distance={distance:.1f}")
    print(f"{len(results)} graphs within distance {args.radius} "
          f"({stats.pruned_by_bound} subtrees pruned, {stats.seconds:.3f}s)")
    return 0


def _run_subgraph_query(args: argparse.Namespace):
    """Shared query runner for ``query``/``trace``/``metrics``."""
    query = _load_query_graph(args.query)
    with _open_index(args.tree, args.cache_pages) as index:
        return _query_once(
            index, query, args.level, not args.no_verify, args.cache_pages
        )


def _write_chrome_trace(records, path: str) -> int:
    """Convert span records to Chrome trace-event JSON at ``path``."""
    payload = obs_trace.chrome_trace(records)
    Path(path).write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    return len(payload["traceEvents"])


def cmd_trace(args: argparse.Namespace) -> int:
    if args.input:
        records = obs_trace.read_jsonl(args.input)
        if args.format == "chrome":
            events = _write_chrome_trace(records, args.out)
            print(f"wrote {events} trace events to {args.out}")
        else:
            print(obs_trace.format_trace_summary(records))
        return 0
    if not (args.tree and args.query):
        raise SystemExit(
            "error: provide -t/-q to run a traced query, "
            "or -i to summarize/convert an existing trace file"
        )
    if args.format == "chrome":
        sink = obs_trace.ListSink()
        with obs_trace.tracing(sink):
            answers, stats = _run_subgraph_query(args)
        _write_chrome_trace(sink.records, args.out)
        print(f"wrote {len(sink.records)} spans to {args.out} "
              f"(chrome trace)")
        records = sink.records
    else:
        sink = obs_trace.JsonlSink(args.out)
        with obs_trace.tracing(sink):
            answers, stats = _run_subgraph_query(args)
        print(f"wrote {sink.count} spans to {args.out}")
        records = None
    print(
        f"|CS|={stats.candidates} |Ans|={stats.answers} "
        f"gamma={stats.access_ratio:.2f} "
        f"search={stats.search_seconds:.3f}s verify={stats.verify_seconds:.3f}s"
    )
    if args.summary:
        print()
        if records is None:
            records = obs_trace.read_jsonl(args.out)
        print(obs_trace.format_trace_summary(records))
    return 0


def _format_explain(profile: dict) -> str:
    """Render an EXPLAIN profile (``QueryStats.explain()`` /
    ``KnnStats.explain()``) as a human-readable report."""
    lines = []
    if profile.get("kind") == "knn":
        exp = profile["expansion"]
        lines.append(
            f"knn query over {profile['database_size']} graphs"
        )
        lines.append(
            f"expansion: {exp['nodes_expanded']} nodes expanded, "
            f"{exp['children_scored']} children scored, "
            f"{exp['graphs_scored']} graphs scored, "
            f"{exp['pruned_by_bound']} subtrees pruned by bound"
        )
        lines.append(
            f"results: {exp['results']}  "
            f"gamma={profile['access_ratio']:.2f}  "
            f"seconds={profile['seconds']:.3f}"
        )
    else:
        lines.append(
            f"subgraph query over {profile['database_size']} graphs"
        )
        header = (f"{'level':>5}  {'nodes':>6}  {'tested':>7}  "
                  f"{'closure-':>9}  {'pseudo-':>8}  {'survive':>7}")
        lines.append(header)
        lines.append(f"{'':5}  {'':6}  {'':7}  {'pruned':>9}  "
                     f"{'pruned':>8}  {'':7}")
        for row in profile["levels"]:
            lines.append(
                f"{row['level']:>5}  {row['nodes']:>6}  "
                f"{row['tested']:>7}  {row['pruned_by_closure']:>9}  "
                f"{row['pruned_by_pseudo_iso']:>8}  "
                f"{row['pseudo_survivors']:>7}"
            )
        pruning = profile["pruning"]
        lines.append(
            f"pruning: {pruning['histogram_tests']} histogram tests "
            f"-> {pruning['pruned_by_closure']} closure-pruned; "
            f"{pruning['pseudo_iso_tests']} pseudo-iso tests "
            f"-> {pruning['pruned_by_pseudo_iso']} pruned; "
            f"{pruning['candidates']} candidates"
        )
        verification = profile["verification"]
        lines.append(
            f"verification: {verification['isomorphism_tests']} iso tests "
            f"-> {verification['answers']} answers "
            f"(accuracy {verification['accuracy']:.0%}) "
            f"in {verification['verify_seconds']:.3f}s"
        )
        lines.append(
            f"access ratio gamma={profile['access_ratio']:.2f}  "
            f"search={profile['search_seconds']:.3f}s"
        )
    page_io = profile.get("page_io")
    if page_io:
        lines.append(
            f"page I/O: {page_io['hits']} hits / {page_io['misses']} misses "
            f"(hit ratio {page_io['hit_ratio']:.0%})"
        )
    return "\n".join(lines)


def cmd_explain(args: argparse.Namespace) -> int:
    """``repro explain``: run one query and print its descent profile."""
    query = _load_query_graph(args.query)
    with _open_index(args.tree, args.cache_pages) as index:
        if args.knn:
            answers, stats = _knn_once(index, query, args.k,
                                       args.cache_pages)
        else:
            answers, stats = _query_once(
                index, query, args.level, not args.no_verify,
                args.cache_pages,
            )
    profile = stats.explain()
    if args.json:
        print(json.dumps(profile, indent=2, sort_keys=True))
    else:
        print(_format_explain(profile))
    return 0


def _format_metrics_table(payload: dict) -> str:
    """Sorted ``metric  type  value`` table over a registry snapshot.

    Counters and gauges show their value; histograms show
    ``count/sum/mean`` so the table stays one greppable line per metric.
    """
    if not payload:
        return "(no metrics changed)"
    width = max(len(name) for name in payload)
    lines = [f"{'metric':<{width}}  {'type':<9}  value"]
    for name in sorted(payload):
        entry = payload[name]
        kind = entry.get("type", "?") if isinstance(entry, dict) else "?"
        if kind == "histogram":
            rendered = (f"count={entry['count']} sum={entry['sum']:g} "
                        f"mean={entry['mean']:g}")
        elif isinstance(entry, dict):
            rendered = f"{entry.get('value', entry):g}" \
                if isinstance(entry.get("value"), float) \
                else str(entry.get("value"))
        else:
            rendered = str(entry)
        lines.append(f"{name:<{width}}  {kind:<9}  {rendered}")
    return "\n".join(lines)


def cmd_metrics(args: argparse.Namespace) -> int:
    registry = global_registry()
    before = registry.snapshot()
    _run_subgraph_query(args)
    payload = registry.snapshot() if args.cumulative else registry.diff(before)
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.output:
        Path(args.output).write_text(text + "\n", encoding="utf-8")
        print(f"wrote {len(payload)} metrics to {args.output}")
    elif args.json:
        print(text)
    else:
        print(_format_metrics_table(payload))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: HTTP serving layer over a saved index."""
    from repro.server import QueryServer, ServerConfig

    if _is_shard_dir(args.tree):
        base = ShardSet.open(args.tree)
    elif args.tree.endswith(".ctp"):
        # The server never writes: open without a WAL handle, and make a
        # crashed index an explicit operator action rather than a silent
        # auto-recovery at serve time.
        base = DiskCTree.open(args.tree, cache_pages=args.cache_pages,
                              wal=False, auto_recover=False)
    else:
        base = load_tree(args.tree)
    index = _maybe_shard(base, args)
    config = ServerConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        cache_size=args.cache_size,
        cache_pages=args.cache_pages,
        max_batch=args.max_batch,
        client_cap=args.client_cap,
        stream_threshold=args.stream_threshold,
        healthz_ttl=args.healthz_ttl,
        slow_query_seconds=args.slow_query_seconds,
        slow_query_rate=args.slow_query_rate,
        slow_query_path=args.slow_query_log,
    )
    server = QueryServer(index, config)
    try:
        server.serve_forever()
    finally:
        if isinstance(base, DiskCTree):
            base.close()
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    path = args.input
    if _is_shard_dir(path):
        sset = ShardSet.open(path)
        desc = sset.describe()
        print(f"sharded {desc['backend']} index: |D|={desc['total_graphs']} "
              f"shards={desc['shards']} placement={desc['placement']}")
        print(f"shard sizes: {desc['shard_sizes']}")
        return 0
    if path.endswith(".ctp"):
        with DiskCTree.open(path) as disk:
            print(f"disk C-tree index: |D|={len(disk)} height={disk.height} "
                  f"pages={disk.pool.pagefile.page_count} "
                  f"page_size={disk.pool.pagefile.page_size}")
        return 0
    if path.endswith(".json"):
        tree = load_tree(path)
        print(f"C-tree snapshot: {tree}")
        print(f"index size: {index_size_bytes(tree)} bytes "
              f"({index_size_bytes(tree, include_graphs=False)} without graphs)")
        return 0
    graphs = load_graph_database(path)
    if not graphs:
        print("empty database")
        return 0
    sizes = [g.num_vertices for g in graphs]
    edges = [g.num_edges for g in graphs]
    labels = {g.label(v) for g in graphs for v in g.vertices()}
    print(f"database: {len(graphs)} graphs")
    print(f"vertices: avg={sum(sizes) / len(sizes):.1f} "
          f"min={min(sizes)} max={max(sizes)}")
    print(f"edges:    avg={sum(edges) / len(edges):.1f} "
          f"min={min(edges)} max={max(edges)}")
    print(f"distinct vertex labels: {len(labels)}")
    return 0


def cmd_recover(args: argparse.Namespace) -> int:
    result = DiskCTree.recover(args.input, deep=args.deep)
    print(result.summary())
    if not result.storage.initialized:
        print("no committed index state exists at this path")
        return 1
    return 0 if result.ok else 1


def cmd_fsck(args: argparse.Namespace) -> int:
    if _is_shard_dir(args.input):
        report = fsck_shards(args.input, deep=args.deep)
        print(report.summary())
        for shard_report in report.reports:
            print(f"  {shard_report.summary()}")
            for note in shard_report.notes:
                print(f"  note: {note}")
            for error in shard_report.errors:
                print(f"  error: {error}")
        for error in report.errors:
            print(f"error: {error}")
        return 0 if report.clean else 1
    report = DiskCTree.fsck(args.input, deep=args.deep)
    print(report.summary())
    for note in report.notes:
        print(f"note: {note}")
    for error in report.errors:
        print(f"error: {error}")
    return 0 if report.clean else 1


def cmd_shard(args: argparse.Namespace) -> int:
    """``repro shard``: partition a database into a shard directory
    (``--create``) or summarize an existing one (``--stats``)."""
    if args.create:
        if not args.input:
            raise SystemExit("error: --create requires -i/--input")
        graphs = load_graph_database(args.input)
        if not graphs:
            raise SystemExit("error: empty database")
        start = time.perf_counter()
        sset = ShardSet.create(
            graphs, args.directory,
            shards=args.shards,
            placement=args.placement,
            min_fanout=args.min_fanout,
            mapping_method=args.mapping,
            page_size=args.page_size,
        )
        seconds = time.perf_counter() - start
        print(f"wrote {sset.shard_count} shards over {len(sset)} graphs "
              f"({args.placement} placement) in {seconds:.2f}s "
              f"-> {args.directory}")
        print(f"shard sizes: {sset.shard_sizes()}")
        return 0
    sset = ShardSet.open(args.directory)
    desc = sset.describe()
    if args.json:
        print(json.dumps(desc, indent=2, sort_keys=True))
        return 0
    print(f"shard directory {args.directory}: "
          f"{desc['total_graphs']} graphs over {desc['shards']} shards "
          f"({desc['placement']} placement, {desc['backend']} backend)")
    sizes = desc["shard_sizes"]
    mean = sum(sizes) / len(sizes)
    for s, size in enumerate(sizes):
        print(f"  shard {s:3d}: {size} graphs "
              f"({size / mean:.2f}x the even share)")
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Closure-tree graph index (He & Singh, ICDE 2006)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a graph database (JSONL)")
    p.add_argument("kind", choices=["chemical", "synthetic"])
    p.add_argument("-n", "--count", type=int, default=100)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seeds", type=int, default=100,
                   help="synthetic: seed pool size S")
    p.add_argument("--seed-size", type=float, default=10.0,
                   help="synthetic: mean seed size I")
    p.add_argument("--graph-size", type=float, default=50.0,
                   help="synthetic: mean graph size T")
    p.add_argument("--labels", type=int, default=10,
                   help="synthetic: distinct labels L")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("build", help="build a C-tree index")
    p.add_argument("-i", "--input", required=True, help="JSONL database")
    p.add_argument("-o", "--output", required=True,
                   help="*.json snapshot or *.ctp disk index")
    p.add_argument("--min-fanout", type=int, default=10)
    p.add_argument("--mapping", default="nbm",
                   choices=["nbm", "bipartite", "bipartite_unweighted"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--page-size", type=int, default=4096)
    p.add_argument("--cache-pages", type=int, default=128)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser(
        "append",
        help="append graphs to a .ctp disk index incrementally "
             "(one group commit per call)",
    )
    p.add_argument("-i", "--input", required=True,
                   help="JSONL database of graphs to append")
    p.add_argument("-t", "--index", required=True, help="*.ctp disk index")
    p.add_argument("--seed", type=int, default=0,
                   help="policy RNG seed for this batch")
    p.add_argument("--cache-pages", type=int, default=128)
    p.set_defaults(func=cmd_append)

    p = sub.add_parser(
        "delete",
        help="delete graphs from a .ctp disk index by id "
             "(one group commit per call)",
    )
    p.add_argument("-t", "--index", required=True, help="*.ctp disk index")
    p.add_argument("--ids", required=True,
                   help="graph ids to delete (comma or space separated)")
    p.add_argument("--seed", type=int, default=0,
                   help="policy RNG seed for merge/redistribute choices")
    p.add_argument("--no-compact", action="store_true",
                   help="skip the automatic compaction check after the "
                        "delete commits")
    p.add_argument("--cache-pages", type=int, default=128)
    p.set_defaults(func=cmd_delete)

    p = sub.add_parser(
        "compact",
        help="repack a degraded .ctp disk index "
             "(no-op while occupancy and height are healthy)",
    )
    p.add_argument("-t", "--index", required=True, help="*.ctp disk index")
    p.add_argument("--force", action="store_true",
                   help="repack even if no degradation trigger fires")
    p.add_argument("--min-occupancy", type=float, default=None,
                   help="occupancy trigger threshold (default "
                        f"{DEFAULT_MIN_OCCUPANCY})")
    p.add_argument("--height-slack", type=int, default=None,
                   help="height trigger tolerance above the bulk-load "
                        f"height (default {DEFAULT_HEIGHT_SLACK})")
    p.add_argument("--seed", type=int, default=0,
                   help="bulk-load RNG seed for the repack")
    p.add_argument("--cache-pages", type=int, default=128)
    p.set_defaults(func=cmd_compact)

    p = sub.add_parser("query", help="subgraph query against a saved index")
    p.add_argument("-t", "--tree", required=True,
                   help="*.json snapshot, *.ctp disk index, or shard "
                        "directory")
    p.add_argument("-q", "--query",
                   help="query graph as JSON, or @file.json")
    p.add_argument("--batch",
                   help="JSONL file of query graphs to serve as a batch")
    p.add_argument("--workers", type=int, default=1,
                   help="batch mode: worker processes (default 1)")
    p.add_argument("--cache-size", type=int, default=256,
                   help="batch mode: LRU answer-cache capacity "
                        "(0 disables caching and deduplication)")
    p.add_argument("--level", type=_parse_level, default=1,
                   help="pseudo-iso level (int or 'max')")
    p.add_argument("--no-verify", action="store_true",
                   help="return unverified candidates")
    p.add_argument("--shards", type=int, default=1,
                   help="re-partition the index into S in-memory shards, "
                        "one engine process each (a shard directory as "
                        "-t implies this)")
    p.add_argument("--placement", choices=list(PLACEMENTS),
                   default="closure",
                   help="--shards placement strategy (default closure)")
    p.add_argument("--cache-pages", type=int, default=128)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser(
        "bench",
        help="batched-engine throughput vs the serial loop, with an "
             "identical-answers gate",
    )
    p.add_argument("-t", "--tree", required=True,
                   help="*.json snapshot, *.ctp disk index, or shard "
                        "directory")
    p.add_argument("-i", "--queries", required=True,
                   help="JSONL file of query graphs")
    p.add_argument("--workers", default="1,2,4",
                   help="comma-separated worker counts (default 1,2,4; "
                        "S > 1 shards run once, one process per shard)")
    p.add_argument("--cache-size", type=int, default=256)
    p.add_argument("--level", type=_parse_level, default=1)
    p.add_argument("--shards", type=int, default=1,
                   help="re-partition the index into S in-memory shards "
                        "and bench the engine over them against the "
                        "single-tree serial loop")
    p.add_argument("--placement", choices=list(PLACEMENTS),
                   default="closure",
                   help="--shards placement strategy (default closure)")
    p.add_argument("--json", help="write the results table here as JSON")
    p.add_argument("--cache-pages", type=int, default=128)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("knn", help="K nearest neighbors of a query graph")
    p.add_argument("-t", "--tree", required=True,
                   help="*.json snapshot, *.ctp disk index, or shard "
                        "directory (shards answer in canonical "
                        "(-similarity, id) tie order)")
    p.add_argument("-q", "--query", required=True)
    p.add_argument("-k", type=int, default=5)
    p.add_argument("--cache-pages", type=int, default=128)
    p.set_defaults(func=cmd_knn)

    p = sub.add_parser("range", help="graphs within an edit-distance radius")
    p.add_argument("-t", "--tree", required=True,
                   help="*.json snapshot or *.ctp disk index")
    p.add_argument("-q", "--query", required=True)
    p.add_argument("-r", "--radius", type=float, required=True)
    p.set_defaults(func=cmd_range)

    p = sub.add_parser(
        "trace",
        help="run a subgraph query with span tracing "
             "(JSONL or Chrome trace-event output)",
    )
    p.add_argument("-t", "--tree",
                   help="*.json snapshot or *.ctp disk index")
    p.add_argument("-q", "--query",
                   help="query graph as JSON, or @file.json")
    p.add_argument("-i", "--input",
                   help="summarize (or, with --format=chrome, convert) an "
                        "existing JSONL trace instead of querying")
    p.add_argument("-o", "--out", default="trace.jsonl",
                   help="trace output path (default: trace.jsonl)")
    p.add_argument("--format", choices=["jsonl", "chrome"], default="jsonl",
                   help="output format: span JSONL (default) or a Chrome "
                        "trace-event JSON loadable in chrome://tracing "
                        "and Perfetto")
    p.add_argument("--summary", action="store_true",
                   help="print the flame-style per-phase summary")
    p.add_argument("--level", type=_parse_level, default=1)
    p.add_argument("--no-verify", action="store_true")
    p.add_argument("--cache-pages", type=int, default=128)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "explain",
        help="run one query and print its EXPLAIN profile "
             "(per-level pruning, verification cost, page I/O)",
    )
    p.add_argument("-t", "--tree", required=True,
                   help="*.json snapshot or *.ctp disk index")
    p.add_argument("-q", "--query", required=True,
                   help="query graph as JSON, or @file.json")
    p.add_argument("--knn", action="store_true",
                   help="profile a k-NN query instead of a subgraph query")
    p.add_argument("-k", type=int, default=5,
                   help="neighbors for --knn (default 5)")
    p.add_argument("--json", action="store_true",
                   help="print the raw profile as JSON")
    p.add_argument("--level", type=_parse_level, default=1)
    p.add_argument("--no-verify", action="store_true")
    p.add_argument("--cache-pages", type=int, default=128)
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser(
        "metrics",
        help="run a subgraph query and show the metrics delta",
    )
    p.add_argument("-t", "--tree", required=True,
                   help="*.json snapshot or *.ctp disk index")
    p.add_argument("-q", "--query", required=True,
                   help="query graph as JSON, or @file.json")
    p.add_argument("-o", "--output",
                   help="write JSON here instead of stdout")
    p.add_argument("--json", action="store_true",
                   help="print JSON instead of the sorted table")
    p.add_argument("--cumulative", action="store_true",
                   help="dump the full registry instead of the query delta")
    p.add_argument("--level", type=_parse_level, default=1)
    p.add_argument("--no-verify", action="store_true")
    p.add_argument("--cache-pages", type=int, default=128)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser(
        "serve",
        help="HTTP server over a saved index (see docs/SERVING.md)",
    )
    p.add_argument("-t", "--tree", required=True,
                   help="*.json snapshot, *.ctp disk index, or shard "
                        "directory")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8744,
                   help="TCP port (0 binds an ephemeral port)")
    p.add_argument("--workers", type=int, default=1,
                   help="engine worker processes (default 1; unused "
                        "over S > 1 shards — one process per shard)")
    p.add_argument("--shards", type=int, default=1,
                   help="serve from S in-memory shards (a shard "
                        "directory as -t implies sharded serving)")
    p.add_argument("--placement", choices=list(PLACEMENTS),
                   default="closure",
                   help="--shards placement strategy (default closure)")
    p.add_argument("--cache-size", type=int, default=256,
                   help="LRU answer-cache capacity (0 disables)")
    p.add_argument("--max-batch", type=int, default=64,
                   help="max queries coalesced per engine batch")
    p.add_argument("--client-cap", type=int, default=8,
                   help="per-client in-flight cap before 429")
    p.add_argument("--stream-threshold", type=int, default=1000,
                   help="answer count that forces NDJSON streaming")
    p.add_argument("--healthz-ttl", type=float, default=5.0,
                   help="seconds a /healthz probe result is cached")
    p.add_argument("--slow-query-log",
                   help="append requests over the slow-query threshold "
                        "to this NDJSON file")
    p.add_argument("--slow-query-seconds", type=float, default=1.0,
                   help="latency threshold for the slow-query log "
                        "(default 1.0s)")
    p.add_argument("--slow-query-rate", type=float, default=1.0,
                   help="fraction of slow queries logged, 0..1 "
                        "(default 1.0 = all)")
    p.add_argument("--cache-pages", type=int, default=128)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "shard",
        help="partition a database into a shard directory of per-shard "
             ".ctp indexes, or summarize one (see docs/PERFORMANCE.md)",
    )
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--create", action="store_true",
                      help="build the shard directory from -i/--input")
    mode.add_argument("--stats", action="store_true",
                      help="print placement and balance of an existing "
                           "shard directory")
    p.add_argument("-d", "--directory", required=True,
                   help="the shard directory (created by --create)")
    p.add_argument("-i", "--input",
                   help="JSONL database to partition (--create)")
    p.add_argument("--shards", type=int, default=4,
                   help="number of shards S (default 4)")
    p.add_argument("--placement", choices=list(PLACEMENTS),
                   default="closure",
                   help="placement strategy: 'closure' clusters similar "
                        "graphs onto the same shard, 'hash' round-robins "
                        "by id (default closure)")
    p.add_argument("--min-fanout", type=int, default=10)
    p.add_argument("--mapping", default="nbm",
                   choices=["nbm", "bipartite", "bipartite_unweighted"])
    p.add_argument("--page-size", type=int, default=4096)
    p.add_argument("--json", action="store_true",
                   help="--stats: print the summary as JSON")
    p.set_defaults(func=cmd_shard)

    p = sub.add_parser("info", help="statistics of a database or index")
    p.add_argument("-i", "--input", required=True,
                   help="*.jsonl database, *.json snapshot, *.ctp index "
                        "or shard directory")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser(
        "recover",
        help="replay a crashed disk index's WAL and validate the result",
    )
    p.add_argument("-i", "--input", required=True, help="*.ctp disk index")
    p.add_argument("--deep", action="store_true",
                   help="also pseudo-match leaf graphs into their closures")
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser(
        "fsck",
        help="integrity-check a disk index or shard directory without "
             "modifying it",
    )
    p.add_argument("-i", "--input", required=True,
                   help="*.ctp disk index or shard directory (per-shard "
                        "fsck plus placement-manifest verification)")
    p.add_argument("--deep", action="store_true",
                   help="also pseudo-match leaf graphs into their closures")
    p.set_defaults(func=cmd_fsck)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
