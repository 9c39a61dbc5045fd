"""Sharding benchmark: S C-trees vs the single tree.

Partitions a |D| = 10,000 chemical database (paper scale; small
molecules keep pure Python affordable — see
:class:`conftest.ShardsBenchConfig`) into S independent C-trees,
round-robin by id, and serves the same subgraph + K-NN workload through
:class:`~repro.ctree.parallel.QueryEngine` at every configured S,
gating on

(a) **bit-identical answers** at every shard count: subgraph answers
    equal ``sorted()`` of the single-tree serial loop, K-NN equals the
    single tree's canonical ``(-sim, id)`` top-k;
(b) **balance**: per-shard candidate work at the largest S within
    ``max_skew`` (1.5x full scale) of perfectly balanced —
    ``max_s work_s <= max_skew * total_work / S``.

Writes ``BENCH_shards.json`` at the repo root (schema
``shards-bench-v3``, validated by :func:`conftest.validate_shards_payload`
and uploaded as a CI artifact by the bench-smoke job) in addition to
the usual ``record_figure`` table + ``BENCH_ctree.json`` entry.
"""

from __future__ import annotations

import json
import multiprocessing
import time

import pytest

import conftest
from conftest import (
    SHARDS,
    SHARDS_BENCH_JSON,
    SHARDS_BENCH_SCHEMA,
    record_figure,
    validate_shards_payload,
)

from repro.ctree.bulkload import bulk_load
from repro.ctree.parallel import QueryEngine
from repro.ctree.shards import ShardSet
from repro.ctree.similarity_query import knn_query
from repro.ctree.subgraph_query import subgraph_query
from repro.datasets.chemical import ChemicalConfig, generate_chemical_database
from repro.datasets.queries import generate_subgraph_queries
from repro.obs.metrics import global_registry

_FORK = "fork" in multiprocessing.get_all_start_methods()


@pytest.fixture(scope="module")
def shard_database():
    """The benchmark database: many small molecules (see config)."""
    cfg = ChemicalConfig(mean_vertices=SHARDS.mean_vertices,
                         large_fraction=0.0, min_vertices=4)
    return generate_chemical_database(SHARDS.database_size,
                                      seed=SHARDS.seed, config=cfg)


@pytest.fixture(scope="module")
def shard_queries(shard_database):
    return generate_subgraph_queries(shard_database, SHARDS.query_size,
                                     SHARDS.subgraph_queries,
                                     seed=SHARDS.seed + 1)


def _serial_baseline(database, queries):
    """The single-tree serial loop every sharded run must reproduce."""
    tree = bulk_load(database, min_fanout=SHARDS.min_fanout)
    start = time.perf_counter()
    subgraph = [sorted(subgraph_query(tree, q, level=1, verify=True)[0])
                for q in queries]
    knn = [knn_query(tree, q, SHARDS.knn_k, canonical=True)[0]
           for q in queries[:SHARDS.knn_queries]]
    return tree, subgraph, knn, time.perf_counter() - start


def _candidate_work(registry, before, shards):
    """Per-shard candidate work accumulated since ``before``."""
    delta = registry.diff(before)
    return [delta.get(f"shard.s{s}.candidate_work", {}).get("value", 0)
            for s in range(shards)]


def _run_sharded(database, queries, shards):
    """Build a shard set, serve the workload, return (run dict, work)."""
    build_start = time.perf_counter()
    shardset = ShardSet.build_memory(database, shards,
                                     min_fanout=SHARDS.min_fanout)
    build_seconds = time.perf_counter() - build_start
    registry = global_registry()
    before = registry.snapshot()
    start = time.perf_counter()
    with QueryEngine(shardset, cache_size=0) as engine:
        subgraph = [a for a, _ in engine.query_many(queries, level=1,
                                                    verify=True)]
        knn = [a for a, _ in
               engine.knn_many(queries[:SHARDS.knn_queries], SHARDS.knn_k)]
    seconds = time.perf_counter() - start
    work = _candidate_work(registry, before, shards)
    run = {
        "shards": shards,
        "build_seconds": build_seconds,
        "query_seconds": seconds,
        "shard_sizes": shardset.shard_sizes(),
        "candidate_work": work,
    }
    return run, subgraph, knn


def test_sharded_scatter_gather(shard_database, shard_queries, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    if not _FORK:
        pytest.skip("sharded benchmark needs the fork start method")

    tree, serial_sub, serial_knn, serial_seconds = _serial_baseline(
        shard_database, shard_queries
    )
    del tree

    runs = []
    for shards in SHARDS.shard_counts:
        run, subgraph, knn = _run_sharded(shard_database, shard_queries,
                                          shards)
        run["identical"] = (subgraph == serial_sub and knn == serial_knn)
        runs.append(run)

    assert all(run["identical"] for run in runs), (
        f"sharded answers diverged from the single-tree serial loop at S="
        f"{[r['shards'] for r in runs if not r['identical']]}"
    )

    def skew(work):
        total = sum(work)
        return (max(work) / (total / len(work))) if total else 1.0

    balance_skew = skew(next(r["candidate_work"] for r in runs
                             if r["shards"] == SHARDS.balance_shards))
    max_skew = SHARDS.max_skew_quick if conftest._QUICK else SHARDS.max_skew

    record_figure(
        "sharded_scatter_gather",
        f"Sharded scatter-gather vs single tree (chemical, "
        f"|D|={SHARDS.database_size}, {SHARDS.subgraph_queries} subgraph "
        f"+ {SHARDS.knn_queries} K-NN queries)",
        "shards",
        [r["shards"] for r in runs],
        {
            "build time (s)": [r["build_seconds"] for r in runs],
            "query time (s)": [r["query_seconds"] for r in runs],
            "speedup vs serial": [serial_seconds / r["query_seconds"]
                                  for r in runs],
            "work skew": [skew(r["candidate_work"]) for r in runs],
        },
        float_format="{:.3f}",
    )

    payload = {
        "schema": SHARDS_BENCH_SCHEMA,
        "quick": conftest._QUICK,
        "workload": {
            "dataset": "chemical-small",
            "database_size": SHARDS.database_size,
            "subgraph_queries": SHARDS.subgraph_queries,
            "knn_queries": SHARDS.knn_queries,
            "query_size": SHARDS.query_size,
            "knn_k": SHARDS.knn_k,
            "min_fanout": SHARDS.min_fanout,
            "seed": SHARDS.seed,
        },
        "serial_seconds": serial_seconds,
        "runs": runs,
        "gate": {
            "identical_all": all(run["identical"] for run in runs),
            "balance_skew": balance_skew,
            "max_skew": max_skew,
        },
    }
    SHARDS_BENCH_JSON.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"\n[shard telemetry written to {SHARDS_BENCH_JSON}]")

    # The same gates CI re-checks from the file — failing them here
    # keeps a bad payload from ever being uploaded.
    print(validate_shards_payload(payload))
