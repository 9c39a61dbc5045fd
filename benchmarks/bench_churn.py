"""Insert/delete churn benchmark: a long-lived disk index stays fast.

Holds ``|D|`` steady through rounds of batch deletes + batch appends
(each batch one group commit), then checks the churned index against a
fresh bulk load over the *same surviving set*.  The tentpole property
under test: incremental deletes (leaf-entry removal, shrink-or-keep
closures, bottom-up merge-or-redistribute) plus the automatic
compaction trigger keep a churned tree query-competitive with a
from-scratch build.

Gates:

(a) every delete and append batch is counted (``ctree.disk.deletes``,
    ``ctree.disk.group_commits``) — the churn really ran incrementally;
(b) the churned index answers a query sweep within ``max_query_ratio``
    (default 1.2x) of a fresh bulk load over the surviving graphs
    (``--quick`` relaxes the ratio: smoke-scale sweeps are
    noise-dominated);
(c) a forced degradation phase (hollow the leaves with compaction off,
    tighten the handle's occupancy trigger) must fire exactly one
    *automatic* compaction on the next delete, restoring occupancy;
(d) a deep ``fsck`` of the final index is clean.

Writes ``BENCH_churn.json`` at the repo root (schema
``churn-bench-v1``, uploaded as a CI artifact by the bench-smoke job)
plus the usual ``record_figure`` table + ``BENCH_ctree.json`` entry.
"""

from __future__ import annotations

import json
import time

import conftest
from conftest import (
    CHURN,
    CHURN_BENCH_JSON,
    CHURN_BENCH_SCHEMA,
    record_figure,
)

from repro.ctree.bulkload import bulk_load
from repro.ctree.diskindex import DiskCTree
from repro.datasets.chemical import ChemicalConfig, generate_chemical_database
from repro.datasets.queries import generate_subgraph_queries
from repro.obs.metrics import global_registry

#: small molecules keep closure maintenance cheap at |D| = 400
_CHEM = ChemicalConfig(mean_vertices=8, large_fraction=0.0)


def _hollow_victims(disk):
    """Graph ids whose deletion trims every leaf to exactly
    ``min_fanout`` entries: no leaf underflows, so no merge repacks
    behind our back, and occupancy sinks to the m/M floor (walks the
    nodes — the point is to build a worst case the public API's merges
    would otherwise smooth away)."""
    return sorted(entry.graph_id
                  for _, node in disk.nodes() if node.is_leaf
                  for entry in node.children[disk.min_fanout:])


def _query_sweep_seconds(disk, queries, repeats):
    """Min-of-N wall time for one full query sweep (damps GC/page-cache
    noise), plus the answer counts of the last sweep."""
    best = float("inf")
    counts = []
    for _ in range(repeats):
        counts = []
        start = time.perf_counter()
        for q in queries:
            answers, _ = disk.subgraph_query(q)
            counts.append(len(answers))
        best = min(best, time.perf_counter() - start)
    return best, counts


def test_churn_stays_query_competitive(tmp_path, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    cfg = CHURN
    pool = generate_chemical_database(
        cfg.database_size + cfg.rounds * cfg.churn_batch,
        seed=cfg.seed, config=_CHEM,
    )
    registry = global_registry()
    names = ("ctree.disk.deletes",
             "ctree.disk.underflow_merges", "ctree.disk.compactions",
             "ctree.disk.group_commits")
    before = {n: registry.counter(n).value for n in names}

    path = tmp_path / "churn.ctp"
    tree = bulk_load(pool[:cfg.database_size], min_fanout=cfg.min_fanout,
                     seed=cfg.seed)
    disk = DiskCTree.create(tree, path, page_size=cfg.page_size,
                            cache_pages=cfg.cache_pages)
    survivors = dict(enumerate(pool[:cfg.database_size]))
    cursor = cfg.database_size

    # -- phase 1: steady-|D| churn rounds --------------------------------
    round_seconds = []
    occupancies = []
    try:
        for round_no in range(cfg.rounds):
            live = sorted(survivors)
            stride = max(1, len(live) // cfg.churn_batch)
            victims = live[::stride][:cfg.churn_batch]
            batch = pool[cursor:cursor + cfg.churn_batch]
            cursor += cfg.churn_batch
            start = time.perf_counter()
            disk.delete_many(victims, seed=cfg.seed + round_no)
            new_ids = disk.extend(batch)
            round_seconds.append(time.perf_counter() - start)
            for gid in victims:
                del survivors[gid]
            survivors.update(zip(new_ids, batch))
            occupancies.append(disk.occupancy)
            assert len(disk) == cfg.database_size

        # -- phase 2: churned index vs fresh bulk load -------------------
        surviving = [survivors[gid] for gid in sorted(survivors)]
        queries = generate_subgraph_queries(surviving, 6, cfg.queries,
                                            seed=cfg.seed)
        churned_s, churned_counts = _query_sweep_seconds(
            disk, queries, cfg.query_repeats)
        fresh_path = tmp_path / "fresh.ctp"
        fresh_tree = bulk_load(surviving, min_fanout=cfg.min_fanout,
                               seed=cfg.seed)
        with DiskCTree.create(fresh_tree, fresh_path,
                              page_size=cfg.page_size,
                              cache_pages=cfg.cache_pages) as fresh:
            fresh_s, fresh_counts = _query_sweep_seconds(
                fresh, queries, cfg.query_repeats)
        # Same multiset of answer counts: ids differ (the churned index
        # keeps watermark ids) but the answer sets must correspond.
        assert churned_counts == fresh_counts
        query_ratio = churned_s / fresh_s if fresh_s else 1.0

        # -- phase 3: forced degradation, automatic recovery -------------
        compactions = registry.counter("ctree.disk.compactions")
        disk.min_occupancy = cfg.degrade_min_occupancy
        hollow = _hollow_victims(disk)
        disk.delete_many(hollow, auto_compact=False)
        for gid in hollow:
            del survivors[gid]
        degraded = disk.occupancy
        trigger = disk.compaction_needed()
        assert trigger is not None, (
            f"hollowing to occupancy {degraded:.2f} must trip the "
            f"{cfg.degrade_min_occupancy} trigger"
        )
        auto_before = compactions.value
        last = sorted(survivors)[0]
        disk.delete(last)  # auto_compact=True is the default
        del survivors[last]
        restored = disk.occupancy
        assert compactions.value == auto_before + 1, \
            "the tripped trigger must fire one automatic compaction"
        assert restored > degraded, (
            f"compaction must restore occupancy "
            f"({degraded:.2f} -> {restored:.2f})"
        )
        assert sorted(dict(disk.iter_graphs())) == sorted(survivors)
    finally:
        disk.close()

    delta = {n: registry.counter(n).value - before[n] for n in names}
    report = DiskCTree.fsck(path, deep=True)
    ratio_cap = cfg.max_query_ratio_quick if conftest._QUICK \
        else cfg.max_query_ratio

    record_figure(
        "churn_rounds",
        f"Insert/delete churn at |D|={cfg.database_size} (chemical, "
        f"batch {cfg.churn_batch}, group-committed)",
        "round",
        list(range(1, cfg.rounds + 1)),
        {
            "round (s)": round_seconds,
            "occupancy": occupancies,
        },
        float_format="{:.3f}",
    )

    payload = {
        "schema": CHURN_BENCH_SCHEMA,
        "quick": conftest._QUICK,
        "workload": {
            "dataset": "chemical",
            "database_size": cfg.database_size,
            "rounds": cfg.rounds,
            "churn_batch": cfg.churn_batch,
            "queries": cfg.queries,
            "query_repeats": cfg.query_repeats,
            "min_fanout": cfg.min_fanout,
            "page_size": cfg.page_size,
            "cache_pages": cfg.cache_pages,
            "seed": cfg.seed,
        },
        "rounds_detail": [
            {"round": i + 1, "seconds": s, "occupancy": o}
            for i, (s, o) in enumerate(zip(round_seconds, occupancies))
        ],
        "query_competitiveness": {
            "churned_seconds": churned_s,
            "fresh_bulk_seconds": fresh_s,
            "ratio": query_ratio,
            "max_ratio": ratio_cap,
        },
        "compaction": {
            "trigger_min_occupancy": cfg.degrade_min_occupancy,
            "trigger_reason": trigger,
            "degraded_occupancy": degraded,
            "restored_occupancy": restored,
        },
        "gate": {
            "deletes": delta["ctree.disk.deletes"],
            "underflow_merges": delta["ctree.disk.underflow_merges"],
            "compactions": delta["ctree.disk.compactions"],
            "group_commits": delta["ctree.disk.group_commits"],
            "query_ratio": query_ratio,
            "fsck_clean": report.clean,
        },
    }
    CHURN_BENCH_JSON.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"\n[churn telemetry written to {CHURN_BENCH_JSON}]")

    assert delta["ctree.disk.deletes"] > 0
    assert delta["ctree.disk.group_commits"] > 0
    assert delta["ctree.disk.compactions"] >= 1
    assert report.clean, report.errors
    assert query_ratio <= ratio_cap, (
        f"churned index answers {query_ratio:.2f}x slower than a fresh "
        f"bulk load (cap {ratio_cap}x): {churned_s:.3f}s vs {fresh_s:.3f}s"
    )
