"""Command-line interface: ``python -m repro <command>``.

Gives the library's main workflows a shell-level surface:

- ``generate`` — write a chemical-like or synthetic graph database (JSONL);
- ``build``    — build a C-tree over a database and save it as a
  ``.ctp`` page-file disk index;
- ``query``    — run a subgraph query (or a JSONL batch of them, with
  ``--batch``/``--workers``) against a saved index; a shard directory
  as the index answers from its S partitions, one process each;
- ``shard``    — partition a database round-robin into a directory of
  per-shard ``.ctp`` indexes plus a placement manifest (``--create``),
  or summarize one (``--stats``);
- ``knn`` / ``range`` — similarity queries against a saved index,
  scored under NBM (Alg. 1), the one mapping a query uses;
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

Every command that reads an index takes it as ``-t`` — a ``*.ctp``
disk index or a shard directory — and opens it through
:func:`repro.ctree.saved.open_index`, read-only unless the command
writes (a crashed index is refused; ``repro recover`` first); which
kind it is matters only to the commands that write (``append`` /
``delete`` / ``compact`` need a ``.ctp``) and to ``range`` (a single
tree).  Flags several commands
share are declared once, as argparse parent parsers, in
:func:`build_parser`.

Graphs on the command line are JSON, either inline or ``@file``:

    python -m repro query -t tree.ctp -q '{"labels": ["C", "O"], "edges": [[0, 1]]}'
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import closing, contextmanager
from dataclasses import fields
from pathlib import Path
from typing import Optional, Sequence

from repro.exceptions import ConfigError, IndexError_, ReproError
from repro.graphs.graph import Graph
from repro.graphs.io import load_graph_database, save_graph_database
from repro.graphs.labelspace import global_labelspace
from repro.ctree.bulkload import bulk_load
from repro.ctree.diskindex import DEFAULT_CACHE_PAGES, DiskCTree
from repro.ctree.parallel import DEFAULT_CACHE_SIZE, QueryEngine
from repro.ctree.saved import fsck_index, index_kind, open_index
from repro.ctree.shards import ShardSet
from repro.ctree.similarity_query import range_query
from repro.datasets.chemical import generate_chemical_database
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic_database
from repro.obs import trace as obs_trace
from repro.obs.metrics import global_registry


def _parse_level(text: str):
    return text if text == "max" else int(text)


def _positive_int(text: str) -> int:
    """argparse type of ``-k`` (what ``POST /knn`` accepts as ``k``) and
    of ``--cache-pages`` (a buffer pool has at least one frame)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


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


def _opened(args):
    """The saved index ``-t`` names, whatever its kind, open read-only
    for one command (closed after).  A crashed index is refused, not
    recovered: that is ``repro recover``'s job."""
    return closing(open_index(args.tree, args.cache_pages, read_only=True))


@contextmanager
def _opened_for_write(args):
    """``-t`` as a writable disk index — the only kind ``append`` /
    ``delete`` / ``compact`` can change."""
    if index_kind(args.tree) != "disk":
        raise SystemExit(f"error: {args.command} requires a .ctp disk index")
    with closing(open_index(args.tree, args.cache_pages)) as disk:
        yield disk


def _answer(args, index, knn: bool = False):
    """The ``-q`` query — subgraph, or K-NN with ``-k`` — against an open
    index of any kind, through the engine: ``(answers, stats)``."""
    query = _load_query_graph(args.query)
    with QueryEngine(index, cache_pages=args.cache_pages) as engine:
        if knn:
            return engine.knn_many([query], args.k)[0]
        return engine.query_many([query], level=args.level,
                                 verify=not args.no_verify)[0]


def _names(index, graph_ids) -> dict[int, str]:
    """Display names of the given graphs, loading those graphs only;
    ``graph-<id>`` for an unnamed one."""
    found = index.find_graphs(graph_ids)
    return {gid: (found[gid].name if gid in found else None)
            or f"graph-{gid}" for gid in graph_ids}


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
    with _opened_for_write(args) as disk:
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
    try:
        ids = [int(token) for token in args.ids.replace(",", " ").split()]
    except ValueError:
        raise SystemExit(f"error: malformed id list {args.ids!r}") from None
    if not ids:
        raise SystemExit("error: no graph ids given")
    with _opened_for_write(args) as disk:
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
    with _opened_for_write(args) as disk:
        start = time.perf_counter()
        reason = disk.compact(seed=args.seed, force=args.force)
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
    if not args.output.endswith(".ctp"):
        raise ConfigError(f"{args.output}: build writes a *.ctp disk index "
                          f"(a shard directory: repro shard --create)")
    graphs = load_graph_database(args.input)
    start = time.perf_counter()
    tree = bulk_load(
        graphs,
        min_fanout=args.min_fanout,
        seed=args.seed,
    )
    build_seconds = time.perf_counter() - start
    with DiskCTree.create(tree, args.output, page_size=args.page_size,
                          cache_pages=args.cache_pages) as disk:
        size = disk.file_bytes
    print(
        f"built C-tree over {len(tree)} graphs in {build_seconds:.2f}s "
        f"(height={tree.height()}, nodes={tree.node_count()}) -> disk "
        f"index {args.output}: {size} bytes, "
        f"{size / max(len(tree), 1):.0f} bytes per graph"
    )
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    if bool(args.query) == bool(args.batch):
        raise SystemExit("error: provide exactly one of -q/--query "
                         "or --batch")
    with _opened(args) as index:
        if args.batch:
            return _run_query_batch(args, index)
        answers, stats = _answer(args, index)
    label = "candidates" if args.no_verify else "answers"
    print(f"{label}: {answers}")
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
        print(f"[{pos}] {label}: {answers}")
    print(
        f"{report.queries} queries in {report.wall_seconds:.3f}s "
        f"({report.throughput:.1f} q/s) workers={report.workers} "
        f"dispatched={report.dispatched} cache_hits={report.cache_hits}"
    )
    return 0


def cmd_knn(args: argparse.Namespace) -> int:
    with _opened(args) as index:
        results, stats = _answer(args, index, knn=True)
        names = _names(index, [gid for gid, _ in results])
    for rank, (gid, similarity) in enumerate(results, start=1):
        print(f"{rank:3d}. #{gid} {names[gid]} sim={similarity:.1f}")
    print(f"accessed {stats.access_ratio:.0%} of the database "
          f"in {stats.seconds:.3f}s")
    return 0


def cmd_range(args: argparse.Namespace) -> int:
    query = _load_query_graph(args.query)
    with _opened(args) as index:
        if index.kind == "sharded":
            raise SystemExit("error: range queries need a single-tree index")
        results, stats = range_query(index, query, args.radius)
        names = _names(index, [gid for gid, _ in results])
    for gid, distance in results:
        print(f"#{gid} {names[gid]} distance={distance:.1f}")
    print(f"{len(results)} graphs within distance {args.radius} "
          f"({stats.pruned_by_bound} subtrees pruned, {stats.seconds:.3f}s)")
    return 0


def _run_subgraph_query(args: argparse.Namespace):
    """Shared query runner for ``trace``/``metrics``."""
    with _opened(args) as index:
        return _answer(args, index)


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
    with _opened(args) as index:
        _, stats = _answer(args, index, knn=args.knn)
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
    global_labelspace().publish(registry)
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


def _server_config(args: argparse.Namespace):
    """The flags ``repro serve`` was given, by the ``ServerConfig``
    field each one names; the rest keep that field's default."""
    from repro.server import ServerConfig

    return ServerConfig(**{f.name: getattr(args, f.name)
                           for f in fields(ServerConfig)
                           if hasattr(args, f.name)})


def cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: HTTP serving layer over a saved index."""
    from repro.server import QueryServer

    with _opened(args) as index:
        QueryServer(index, _server_config(args)).serve_forever()
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    path = args.input
    if not path.endswith(".jsonl"):
        with closing(open_index(path, read_only=True)) as index:
            print(index.info())
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
    report = fsck_index(args.input, deep=args.deep)
    print("\n".join(report.lines()))
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
            min_fanout=args.min_fanout,
            page_size=args.page_size,
        )
        seconds = time.perf_counter() - start
        print(f"wrote {sset.shard_count} shards over {len(sset)} graphs "
              f"in {seconds:.2f}s -> {args.directory}")
        print(f"shard sizes: {sset.shard_sizes()}")
        return 0
    sset = ShardSet.open(args.directory)
    desc = sset.describe()
    if args.json:
        print(json.dumps(desc, indent=2, sort_keys=True))
        return 0
    print(f"shard directory {args.directory}: "
          f"{desc['total_graphs']} graphs over {desc['shards']} shards "
          f"({desc['backend']} backend)")
    sizes = desc["shard_sizes"]
    mean = sum(sizes) / len(sizes)
    for s, size in enumerate(sizes):
        print(f"  shard {s:3d}: {size} graphs "
              f"({size / mean:.2f}x the even share)")
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def _flags(*parents: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """An option group to declare once and hand to every subcommand
    that takes it (argparse ``parents=``)."""
    return argparse.ArgumentParser(add_help=False, parents=list(parents))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Closure-tree graph index (He & Singh, ICDE 2006)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, *parents, **kwargs):
        p = sub.add_parser(name, parents=list(parents), **kwargs)
        p.set_defaults(func=func)
        return p

    # Flags more than one subcommand takes, each declared here and
    # nowhere else; defaults come from the code the value is handed to.
    cache = _flags()
    cache.add_argument("--cache-pages", type=_positive_int,
                       default=DEFAULT_CACHE_PAGES,
                       help="memory of a disk index handle: buffer-pool "
                            "pages, and as many decoded tree nodes kept "
                            "resident (default %(default)s)")
    index = _flags(cache)
    index.add_argument("-t", "--tree", "--index", dest="tree", required=True,
                       help="the saved index: *.ctp disk index or shard "
                            "directory")
    query_opts = _flags()
    query_opts.add_argument("--level", type=_parse_level, default=1,
                            help="pseudo-iso level (int or 'max')")
    query_opts.add_argument("--no-verify", action="store_true",
                            help="return unverified candidates")
    seed = _flags()
    seed.add_argument("--seed", type=int, default=0,
                      help="RNG seed (default 0)")
    build_opts = _flags()
    build_opts.add_argument("--min-fanout", type=int, default=10)
    build_opts.add_argument("--page-size", type=int, default=4096)
    one_query = _flags()
    one_query.add_argument("-q", "--query", required=True,
                           help="query graph as JSON, or @file.json")
    neighbors = _flags()
    neighbors.add_argument("-k", type=_positive_int, default=5,
                           help="neighbors K (default %(default)s)")
    check = _flags()
    check.add_argument("-i", "--input", required=True,
                       help="*.ctp disk index (fsck: or a shard directory "
                            "— per-shard fsck plus placement-manifest "
                            "verification)")
    check.add_argument("--deep", action="store_true",
                       help="also pseudo-match leaf graphs into their "
                            "closures")

    p = command("generate", cmd_generate, seed,
                help="generate a graph database (JSONL)")
    p.add_argument("kind", choices=["chemical", "synthetic"])
    p.add_argument("-n", "--count", type=int, default=100)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--seeds", type=int, default=100,
                   help="synthetic: seed pool size S")
    p.add_argument("--seed-size", type=float, default=10.0,
                   help="synthetic: mean seed size I")
    p.add_argument("--graph-size", type=float, default=50.0,
                   help="synthetic: mean graph size T")
    p.add_argument("--labels", type=int, default=10,
                   help="synthetic: distinct labels L")

    p = command("build", cmd_build, cache, seed, build_opts,
                help="build a C-tree index")
    p.add_argument("-i", "--input", required=True, help="JSONL database")
    p.add_argument("-o", "--output", required=True,
                   help="*.ctp disk index to write")

    p = command(
        "append", cmd_append, index, seed,
        help="append graphs to a .ctp disk index incrementally "
             "(one group commit per call)",
    )
    p.add_argument("-i", "--input", required=True,
                   help="JSONL database of graphs to append")

    p = command(
        "delete", cmd_delete, index, seed,
        help="delete graphs from a .ctp disk index by id "
             "(one group commit per call)",
    )
    p.add_argument("--ids", required=True,
                   help="graph ids to delete (comma or space separated)")
    p.add_argument("--no-compact", action="store_true",
                   help="skip the automatic compaction check after the "
                        "delete commits")

    p = command(
        "compact", cmd_compact, index, seed,
        help="repack a degraded .ctp disk index "
             "(no-op while occupancy and height are healthy)",
    )
    p.add_argument("--force", action="store_true",
                   help="repack even if no degradation trigger fires")

    p = command("query", cmd_query, index, query_opts,
                help="subgraph query against a saved index")
    p.add_argument("-q", "--query",
                   help="query graph as JSON, or @file.json")
    p.add_argument("--batch",
                   help="JSONL file of query graphs to serve as a batch")
    p.add_argument("--workers", type=int, default=1,
                   help="batch mode: worker processes (default 1)")
    p.add_argument("--cache-size", type=int, default=DEFAULT_CACHE_SIZE,
                   help="batch mode: LRU answer-cache capacity "
                        "(0 disables caching and deduplication)")

    command("knn", cmd_knn, index, one_query, neighbors,
            help="K nearest neighbors of a query graph")

    p = command("range", cmd_range, index, one_query,
                help="graphs within an edit-distance radius "
                     "(single-tree indexes only)")
    p.add_argument("-r", "--radius", type=float, required=True)

    p = command(
        "trace", cmd_trace, cache, query_opts,
        help="run a subgraph query with span tracing "
             "(JSONL or Chrome trace-event output)",
    )
    # Optional here, unlike everywhere else: -i works without an index.
    p.add_argument("-t", "--tree",
                   help="the saved index: *.ctp disk index or shard "
                        "directory")
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

    p = command(
        "explain", cmd_explain, index, query_opts, one_query, neighbors,
        help="run one query and print its EXPLAIN profile "
             "(per-level pruning, verification cost, page I/O)",
    )
    p.add_argument("--knn", action="store_true",
                   help="profile a k-NN query instead of a subgraph query")
    p.add_argument("--json", action="store_true",
                   help="print the raw profile as JSON")

    p = command("metrics", cmd_metrics, index, query_opts, one_query,
                help="run a subgraph query and show the metrics delta")
    p.add_argument("-o", "--output",
                   help="write JSON here instead of stdout")
    p.add_argument("--json", action="store_true",
                   help="print JSON instead of the sorted table")
    p.add_argument("--cumulative", action="store_true",
                   help="dump the full registry instead of the query delta")

    # Each flag's dest is the ServerConfig field it sets, and none has a
    # default here: one left out is left to ServerConfig (_server_config).
    p = command("serve", cmd_serve, index,
                argument_default=argparse.SUPPRESS,
                help="HTTP server over a saved index (see docs/SERVING.md)")
    p.add_argument("--host", help="bind address")
    p.add_argument("--port", type=int,
                   help="TCP port (0 binds an ephemeral port)")
    p.add_argument("--workers", type=int,
                   help="engine worker processes (unused over S > 1 "
                        "shards — one process per shard)")
    p.add_argument("--cache-size", type=int,
                   help="LRU answer-cache capacity (0 disables)")
    p.add_argument("--client-cap", type=int,
                   help="per-client in-flight cap before 429")
    p.add_argument("--healthz-ttl", type=float,
                   help="seconds a /healthz probe result is cached")
    p.add_argument("--slow-query-log", dest="slow_query_path",
                   help="append requests over the slow-query threshold "
                        "to this NDJSON file")
    p.add_argument("--slow-query-seconds", type=float,
                   help="latency threshold for the slow-query log, seconds")

    p = command(
        "shard", cmd_shard, build_opts,
        help="partition a database into a shard directory of per-shard "
             ".ctp indexes, or summarize one (see docs/PERFORMANCE.md)",
    )
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--create", action="store_true",
                      help="build the shard directory from -i/--input")
    mode.add_argument("--stats", action="store_true",
                      help="print shard sizes and balance of an existing "
                           "shard directory")
    p.add_argument("-d", "--directory", required=True,
                   help="the shard directory (created by --create)")
    p.add_argument("-i", "--input",
                   help="JSONL database to partition (--create)")
    p.add_argument("--shards", type=int, default=4,
                   help="number of shards S (default 4); graphs are "
                        "placed round-robin by id")
    p.add_argument("--json", action="store_true",
                   help="--stats: print the summary as JSON")

    p = command("info", cmd_info, help="statistics of a database or index")
    p.add_argument("-i", "--input", required=True,
                   help="*.jsonl database, or a saved index (*.ctp "
                        "index, shard directory)")

    command("recover", cmd_recover, check,
            help="replay a crashed disk index's WAL and validate the result")
    command("fsck", cmd_fsck, check,
            help="integrity-check a disk index or shard directory without "
                 "modifying it")

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
