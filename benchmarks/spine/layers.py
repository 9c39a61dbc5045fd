"""The traced run: per-layer metrics from an outside-in ladder.

A sample of the workload's reads (its first quarter, or as much of it as
fits in ``--seconds``) is replayed through successively deeper entry
points — over HTTP, through an in-process engine shaped like the
server's, on a small-pool disk handle (once traced, once plain), on an
all-cached disk handle, on the in-memory tree — and adjacent rungs are
subtracted, so the parts sum to the whole and what no named metric
accounts for is printed as ``trace.unattributed_share``.  The ladder is the same for every
workload; what differs is the sample it climbs with (distinct reads,
reads of the churn rounds, Zipf-repeated requests).  Each op climbs every
rung before the next op starts, so the machine's drift (a quarter of its
speed over a minute on the reference box) hits all rungs alike and
cancels in the differences.  A write probe (three churn rounds' delete
and insert batches on a counted handle) and replays of single kernels
follow.  Counts come from the stats objects the public calls return and
from the counting opener.  Spans are recorded here, around the calls
into each layer, never inside ``src/``.
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.ctree.diskindex import DiskCTree
from repro.ctree.parallel import QueryEngine
from repro.ctree.shardcache import LRUAnswerCache
from repro.ctree.shards import ShardedEngine, ShardSet
from repro.ctree.subgraph_query import subgraph_query
from repro.graphs.closure import GraphClosure
from repro.graphs.graph import Graph
from repro.matching import (
    compile_query,
    graph_similarity,
    sim_upper_bound,
    subgraph_isomorphic,
)
from repro.matching.kernels import global_semi_perfect_masks
from repro.obs.metrics import global_registry
from repro.server.app import parse_graph_field
from repro.storage import BufferPool, PageFile, RecordStore

import common
from common import (
    CACHE_PAGES, DELETE, EXTEND, K, KNN, MIN_FANOUT, PAGE_SIZE, READ_KINDS,
    SUBGRAPH, Op, Record, mean,
)
from tracing import CountingOpener, SpanRecorder
from workloads import DiskChurnRw, ServedDiskZipf

#: The ladder climbs with this fraction of the workload's reads, cut
#: short after ``--seconds`` so a traced run of six rungs lasts about as
#: long as an untraced one.
SAMPLE_FRACTION = 4
#: Churn rounds whose write batches the write probe replays.
PROBE_ROUNDS = 3
#: Pairs per matching-kernel replay.
MATCHING_PAIRS = 200
#: Round trips per fixed-request probe (``GET /``, a certain hit).
ROUND_TRIPS = 30


@dataclass
class Rung:
    """One entry point of the ladder."""

    name: str
    layer: str
    answer_op: Callable[[Op], tuple]
    #: record a span per op (the traced rungs only)
    spans: bool = False
    #: climb this rung for the current op only when this returns true
    when: Optional[Callable[[], bool]] = None


class Trace:
    """State of one traced run: recorder, opener, metrics, tallies."""

    def __init__(self) -> None:
        self.rec = SpanRecorder()
        self.opener = CountingOpener()
        self.m: dict[str, float] = {}
        #: mean ms per op of every rung climbed (printed beside the metrics)
        self.rung_ms: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def climb(self, ops: list[Op], rungs: list[Rung],
              budget_s: float = float("inf")
              ) -> dict[str, list[Optional[Record]]]:
        """Replay ``ops``, each through every rung in turn, until they
        are done or ``budget_s`` is spent; returns per rung one record per
        op climbed (``None`` where the rung was skipped)."""
        out: dict[str, list] = {rung.name: [] for rung in rungs}
        gc.collect()
        start = time.perf_counter()
        with self.rec.span("ladder", "bench"):
            for i, op in enumerate(ops):
                if time.perf_counter() - start > budget_s:
                    break
                for rung in rungs:
                    if rung.when is not None and not rung.when():
                        out[rung.name].append(None)
                    elif rung.spans:
                        with self.rec.span(op.kind, rung.layer, op=i):
                            out[rung.name].append(
                                common.timed(rung.answer_op, op))
                    else:
                        out[rung.name].append(
                            common.timed(rung.answer_op, op))
        for records in out.values():
            self.tally([r for r in records if r is not None])
        return out

    def tally(self, records: list[Record]) -> None:
        """Count attempted and failed ops."""
        self.attempted += len(records)
        for r in records:
            if r.error:
                self.fail(f"{r.op.kind}: {r.error}")

    def fail(self, problem: str) -> None:
        """Count one failed op or check."""
        self.failed += 1
        self.problems.append(problem)

    def same_answers(self, what: str, a: list, b: list,
                     knn: bool = True) -> None:
        """Two rungs must agree: subgraph answers as id sets, K-NN (when
        both rungs scored the same graph representation) by similarity."""
        for ra, rb in zip(a, b):
            if ra is None or rb is None or ra.error or rb.error:
                continue
            if ra.op.kind == SUBGRAPH:
                ok = sorted(ra.answer) == sorted(rb.answer)
            else:
                ok = not knn or common.knn_matches(
                    [(g, float(s)) for g, s in ra.answer],
                    [(g, float(s)) for g, s in rb.answer])
            if not ok:
                self.fail(f"{what}: {ra.op.kind} op {ra.op.pool_index} "
                          f"differs")


def seconds_of(records: list) -> float:
    """Summed op time of a rung."""
    return sum(r.seconds for r in records if r is not None)


def ran(records: list) -> list[Record]:
    """The ops a rung ran without error."""
    return [r for r in records if r is not None and not r.error]


# ----------------------------------------------------------------------
# Metrics from stats objects
# ----------------------------------------------------------------------
def stats_seconds(records: list[Record]) -> float:
    """Seconds the returned stats objects account for."""
    return sum(
        r.stats.search_seconds + r.stats.verify_seconds
        if r.op.kind == SUBGRAPH else r.stats.seconds
        for r in records)


def tree_metrics(t: Trace, records: list[Record]) -> None:
    """``tree.*`` per query, from the stats of the memory rung."""
    sub = [r.stats for r in records if r.op.kind == SUBGRAPH]
    knn = [r.stats for r in records if r.op.kind == KNN]
    candidates = sum(s.candidates for s in sub)
    t.m.update({
        "tree.search_ms_per_query": 1000 * mean(s.search_seconds for s in sub),
        "tree.verify_ms_per_query": 1000 * mean(s.verify_seconds for s in sub),
        "tree.knn_ms_per_query": 1000 * mean(s.seconds for s in knn),
        "tree.pseudo_tests_per_query": mean(s.pseudo_tests for s in sub),
        "tree.candidates_per_query": candidates / max(len(sub), 1),
        "tree.answers_per_query": mean(s.answers for s in sub),
        "tree.accuracy":
            sum(s.answers for s in sub) / candidates if candidates else 1.0,
        "tree.access_ratio": mean(s.access_ratio for s in sub),
        "tree.knn_graphs_scored_per_query": mean(s.graphs_scored for s in knn),
        "tree.knn_nodes_expanded_per_query":
            mean(s.nodes_expanded for s in knn),
        "tree.knn_access_ratio": mean(s.access_ratio for s in knn),
    })


def per_call_us(fn: Callable, items: list) -> float:
    """Mean microseconds of ``fn(item)`` over ``items``."""
    if not items:
        return 0.0
    start = time.perf_counter()
    for item in items:
        fn(item)
    return 1e6 * (time.perf_counter() - start) / len(items)


def closures_of(tree) -> list[GraphClosure]:
    """Every node closure of the in-memory tree."""
    out, stack = [], [tree.root]
    while stack:
        node = stack.pop()
        if node.closure is not None:
            out.append(node.closure)
        if not node.is_leaf:
            stack.extend(node.children)
    return out


def sample_of(ops: list[Op]) -> list[Op]:
    """The first quarter of the workload's reads, each query in the form
    a disk index or a request body gives it so that every rung scores the
    same representation."""
    reads = [op for op in ops if op.kind in READ_KINDS]
    return [Op(op.kind, common.as_stored(op.payload), op.pool_index)
            for op in reads[:max(4, len(reads) // SAMPLE_FRACTION)]]


# ----------------------------------------------------------------------
# The ladder
# ----------------------------------------------------------------------
def read_ladder(t: Trace, served: ServedDiskZipf, sample: list[Op],
                budget_s: float) -> list[Record]:
    """HTTP → engine → traced handle → plain handle → all-cached handle →
    memory tree; the four inner rungs run what the engine missed.
    Returns the memory rung's records."""
    small = DiskCTree.open(served.path, cache_pages=CACHE_PAGES)
    cached = DiskCTree.open(served.path, cache_pages=1 << 16)
    engine_disk = DiskCTree.open(served.path, cache_pages=CACHE_PAGES,
                                 wal=False)
    engine = QueryEngine(engine_disk, workers=served.workers,
                         cache_size=served.answer_cache,
                         cache_pages=CACHE_PAGES).start()
    reports = []

    def through_engine(op: Op):
        if op.kind == SUBGRAPH:
            result = engine.query_many([op.payload])[0]
        else:
            result = engine.knn_many([op.payload], K)[0]
        reports.append(engine.last_batch)
        return result

    def missed() -> bool:
        return reports[-1].cache_hits == 0

    conn = served.connect()
    try:
        for op in common.warmup_ops(served.corpus):
            common.answer(small, op)
        for _ in cached.iter_graphs():  # touch every page once
            pass
        before = t.opener.snapshot()
        got = t.climb(sample, [
            Rung("http", "server", lambda op: served.request(conn, op),
                 spans=True),
            Rung("engine", "ctree.parallel", through_engine),
            Rung("traced", "ctree.diskindex",
                 lambda op: common.answer(served.disk, op), spans=True,
                 when=missed),
            Rung("small_pool", "storage",
                 lambda op: common.answer(small, op), when=missed),
            Rung("all_cached", "ctree.diskindex",
                 lambda op: common.answer(cached, op), when=missed),
            Rung("memory", "ctree",
                 lambda op: common.answer(served.tree, op), when=missed),
        ], budget_s)
        climbed = sample[:len(got["http"])]
        read_calls = t.opener.snapshot()["read_calls"] - before["read_calls"]
        entries = engine.cache_entries
        noop_us = per_call_us(lambda _: served.get("/", conn),
                              [None] * ROUND_TRIPS)
        hit_us = per_call_us(lambda _: served.request(conn, climbed[-1]),
                             [None] * ROUND_TRIPS)
        _, body = served.get("/metrics", conn)
    finally:
        conn.close()
        engine.close()
        for handle in (small, cached, engine_disk):
            handle.close()

    for outer, inner, knn in (("http", "engine", True),
                              ("engine", "traced", True),
                              ("traced", "small_pool", True),
                              ("small_pool", "all_cached", True),
                              ("all_cached", "memory", False)):
        t.same_answers(f"{outer} vs {inner}", got[outer], got[inner], knn)
    exposed = dict(line.split(" ", 1) for line in body.decode().splitlines()
                   if line and not line.startswith("#"))
    batches = float(exposed.get("server_coalesce_batches_total", 0))
    coalesced = float(exposed.get("server_coalesce_queries_total", 0))

    # The answer cache alone, on the answers the plain rung produced.
    direct = ran(got["small_pool"])
    cache = LRUAnswerCache(served.answer_cache)
    keyed = [(r.op.kind, (1, True) if r.op.kind == SUBGRAPH else (K, "nbm"),
              r.op.payload, r.answer, r.stats) for r in direct]
    put_us = per_call_us(lambda e: cache.put(*e), keyed)
    get_us = per_call_us(lambda e: cache.get(*e[:3]), keyed)

    traced = ran(got["traced"])
    hits = sum(r.stats.page_hits for r in traced)
    misses = sum(r.stats.page_misses for r in traced)
    n = max(len(direct), 1)
    http_s, small_s, cached_s, mem_s = (
        seconds_of(got[k]) for k in ("http", "small_pool", "all_cached",
                                     "memory"))
    queries = sum(rep.queries for rep in reports)
    t.rung_ms = {name: 1000 * mean(r.seconds for r in ran(records))
                 for name, records in got.items()}
    bodies = [{"query": op.payload.to_dict()} for op in climbed]
    memory = ran(got["memory"])
    tree_metrics(t, memory)
    t.m.update({
        "server.parse_us_per_req": per_call_us(parse_graph_field, bodies),
        "server.overhead_ms_per_req":
            1000 * (http_s - seconds_of(got["engine"])) / len(climbed),
        "server.noop_roundtrip_ms": noop_us / 1000,
        "server.failed_reqs": sum(1 for r in got["http"] if r.error),
        "coalescer.batches": batches,
        "coalescer.mean_batch_size": coalesced / batches if batches else 0.0,
        "coalescer.hit_wait_ms": (hit_us - noop_us - get_us) / 1000,
        "engine.cache_hit_rate":
            sum(rep.cache_hits for rep in reports) / queries,
        "engine.dispatched_per_query":
            sum(rep.dispatched for rep in reports) / queries,
        "engine.utilization": sum(rep.busy_seconds for rep in reports)
            / sum(rep.workers * rep.wall_seconds for rep in reports),
        "engine.overhead_ms_per_miss": 1000 * (sum(
            e.seconds for e, d in zip(got["engine"], got["small_pool"])
            if d is not None) - small_s) / n,
        "cache.get_us": get_us,
        "cache.put_us": put_us,
        "cache.entries_final": entries,
        "storage.pages_read_per_query": misses / max(len(traced), 1),
        "storage.pool_hit_ratio": hits / max(hits + misses, 1),
        "storage.read_calls_per_query": read_calls / max(len(traced), 1),
        "storage.page_io_ms_per_query": 1000 * (small_s - cached_s) / n,
        "disktree.decode_ms_per_query": 1000 * (cached_s - mem_s) / n,
        "trace.overhead_share": seconds_of(got["traced"]) / small_s - 1,
        "trace.unattributed_share":
            (mem_s - stats_seconds(memory)) / http_s,
    })
    return memory


def write_probe(t: Trace, churn: DiskChurnRw) -> None:
    """The delete and insert batches of the first churn rounds on a
    counted WAL-backed handle: what one group commit writes and costs."""
    registry = global_registry()
    counters = {name: registry.counter(f"ctree.disk.{name}")
                for name in ("compactions", "rebuilds")}
    before_counters = {n: c.value for n, c in counters.items()}
    churn.create_index(t.opener)
    churn.open_index(t.opener)
    writes = [op for op in churn.ops()
              if op.kind in (DELETE, EXTEND)][:2 * PROBE_ROUNDS]
    deltas: list[dict] = []

    def counted(op: Op):
        before = t.opener.snapshot()
        try:
            return churn.answer(op)
        finally:
            after = t.opener.snapshot()
            deltas.append({k: after[k] - before[k] for k in after})

    got = t.climb(writes, [Rung("write", "ctree.diskindex", counted,
                                spans=True)])["write"]
    for problem in churn.final_check():
        t.fail(problem)
    seconds = {kind: [r.seconds for r in got if r.op.kind == kind]
               for kind in (DELETE, EXTEND)}
    batch = len(writes[0].payload)
    t.m.update({
        "storage.bytes_written_per_graph":
            sum(d["write_bytes"] for d in deltas) / (batch * len(writes)),
        "storage.write_calls_per_batch":
            mean(d["write_calls"] for d in deltas),
        "storage.fsyncs_per_batch": mean(d["fsyncs"] for d in deltas),
        "storage.checkpoint_ms":
            1000 * mean(d["mutate_seconds"] for d in deltas),
        "disktree.extend_ms_per_graph": 1000 * mean(seconds[EXTEND]) / batch,
        "disktree.delete_ms_per_graph": 1000 * mean(seconds[DELETE]) / batch,
        "disktree.write_batch_p50_ms":
            1000 * statistics.median(r.seconds for r in got),
        "disktree.occupancy_final": churn.disk.occupancy,
        "disktree.height_final": churn.disk.height,
        **{f"disktree.{name}": counter.value - before_counters[name]
           for name, counter in counters.items()},
    })


# ----------------------------------------------------------------------
# Single kernels, replayed alone
# ----------------------------------------------------------------------
def matching_replays(t: Trace, corpus, tree, records: list[Record]) -> None:
    """Each matching kernel on pairs the sample produced: (query, node
    closure), (query, candidate), (probe, neighbour)."""
    queries = [r.op.payload for r in records if r.op.kind == SUBGRAPH]
    closures = closures_of(tree)
    with t.rec.span("matching.replays", "matching"):
        # Copies carry no memoised context, so this is a cold compile.
        t.m["matching.compile_query_us"] = per_call_us(
            compile_query, [q.copy() for q in queries])
        compiled = [compile_query(q) for q in queries]
        pseudo_pairs = [(qc, c) for qc in compiled
                        for c in closures][:MATCHING_PAIRS]
        t.m["matching.pseudo_us_per_test"] = per_call_us(
            lambda p: global_semi_perfect_masks(p[0].domain_masks(p[1])),
            pseudo_pairs)
        candidate_pairs = [
            (q, corpus[gid], qc.domains(corpus[gid]))
            for q, qc in zip(queries, compiled)
            for gid in subgraph_query(tree, q, verify=False)[0]
        ][:MATCHING_PAIRS]
        t.m["matching.ullmann_ms_per_test"] = per_call_us(
            lambda p: subgraph_isomorphic(*p), candidate_pairs) / 1000
        neighbour_pairs = [
            (r.op.payload, corpus[gid])
            for r in records if r.op.kind == KNN for gid, _ in r.answer
        ][:MATCHING_PAIRS]
        t.m["matching.nbm_ms_per_pair"] = per_call_us(
            lambda p: graph_similarity(p[0], p[1]), neighbour_pairs) / 1000
        t.m["matching.sim_bound_us_per_pair"] = per_call_us(
            lambda p: sim_upper_bound(p[0], p[1]), neighbour_pairs)


def decode_replays(t: Trace, corpus, tree) -> None:
    """``Graph.from_dict`` / ``GraphClosure.from_dict`` on the dicts the
    index stores."""
    with t.rec.span("graphs.replays", "graphs"):
        t.m["graphs.graph_from_dict_us"] = per_call_us(
            Graph.from_dict, [g.to_dict() for g in corpus])
        t.m["graphs.closure_from_dict_us"] = per_call_us(
            GraphClosure.from_dict, [c.to_dict() for c in closures_of(tree)])


def record_load_replay(t: Trace, corpus, path: str) -> None:
    """``RecordStore.load``: the corpus graphs' JSON records in a scratch
    page file, read back through a pool as small as the workloads'."""
    payloads = [json.dumps(g.to_dict(), separators=(",", ":")).encode()
                for g in corpus]
    with t.rec.span("storage.record_load", "storage"):
        pool = BufferPool(PageFile.create(path, page_size=PAGE_SIZE),
                          capacity=CACHE_PAGES)
        try:
            store = RecordStore(pool)
            ids = [store.store(p) for p in payloads]
            pool.flush()
            t.m["storage.record_load_us"] = per_call_us(store.load, ids)
        finally:
            pool.close()


def shard_rung(t: Trace, corpus, records: list[Record]) -> None:
    """``ShardedEngine`` over two in-memory shards on the sample, against
    the memory rung's serial loop — a layer number only (two busy workers
    on a two-core box do not repeat well enough for an end-to-end
    metric)."""
    with t.rec.span("shards.build", "ctree.shards") as span:
        shardset = ShardSet.build_memory(corpus, 2, placement="hash",
                                         min_fanout=MIN_FANOUT)
    t.m["shards.build_s"] = span["end"] - span["start"]
    queries = [r.op.payload for r in records if r.op.kind == SUBGRAPH]
    probes = [r.op.payload for r in records if r.op.kind == KNN]
    engine = ShardedEngine(shardset, cache_size=0).start()
    try:
        with t.rec.span("shards.scatter", "ctree.shards") as span:
            engine.query_many(queries)
            engine.knn_many(probes, K)
    finally:
        engine.close()
    t.attempted += len(records)
    t.m["shards.scatter_overhead_ratio"] = \
        (span["end"] - span["start"]) / seconds_of(records)


# ----------------------------------------------------------------------
def run_traced(workload, spec: dict) -> dict:
    """Set the whole stack up once under spans, climb the ladder with the
    workload's sample, probe writes, replay kernels, write
    ``out/trace.json`` and return every per-layer metric of the spec."""
    t = Trace()
    ctx = workload.ctx
    served, churn = ServedDiskZipf(ctx), DiskChurnRw(ctx)
    try:
        with t.rec.span("setup", "bench"):
            steps = served.steps(t.opener) + [
                ("disktree.open", "ctree.diskindex",
                 lambda: served.open_index(t.opener))]
            for name, layer, step in steps:
                with t.rec.span(name, layer):
                    step()
            served.warm()
        for metric, span, scale in (
                ("tree.bulk_load_s", "tree.bulk_load", 1.0),
                ("disktree.create_s", "disktree.create", 1.0),
                ("disktree.open_ms", "disktree.open", 1000.0),
                ("server.start_s", "server.start", 1.0)):
            t.m[metric] = scale * t.rec.seconds(span)[0]
        corpus, tree = served.corpus, served.tree
        t.m["tree.height"] = tree.height()
        for other in (workload, churn):
            other.corpus, other.tree = corpus, tree

        memory = read_ladder(t, served, sample_of(workload.ops()),
                             budget_s=ctx.seconds)
        served.close()
        write_probe(t, churn)
        matching_replays(t, corpus, tree, memory)
        decode_replays(t, corpus, tree)
        record_load_replay(t, corpus, str(ctx.fresh_path("records.pf")))
        shard_rung(t, corpus, memory)
    finally:
        served.close()
        churn.close()

    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if set(t.m) != set(units):
        raise RuntimeError(
            f"per-layer metrics differ from BENCHMARK.json: "
            f"{sorted(set(t.m) ^ set(units))}")
    metrics = {name: {"value": float(t.m[name]), "unit": unit}
               for name, unit in units.items()}
    write_trace(t, ctx, metrics)
    return {
        "correct": t.failed == 0, "attempted": t.attempted,
        "failed": t.failed, "metrics": metrics,
        "info": {
            "spans": len(t.rec.spans),
            "rung_ms_per_op": t.rung_ms,
            "self_seconds_by_layer": t.rec.self_seconds_by_layer(),
            "problems": t.problems[:10],
        },
    }


def write_trace(t: Trace, ctx, metrics: dict) -> None:
    """Merge this workload's spans into ``out/trace.json`` (one key per
    workload, so a full run keeps all four)."""
    path = common.OUT_DIR / "trace.json"
    try:
        with open(path, encoding="utf-8") as fh:
            merged = json.load(fh)
    except (OSError, ValueError):
        merged = {}
    merged[ctx.workload] = {
        "seed": ctx.seed, "scale": ctx.scale,
        "rung_ms_per_op": t.rung_ms,
        "metrics": {k: v["value"] for k, v in metrics.items()},
        "spans": t.rec.export(),
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(merged, fh)
