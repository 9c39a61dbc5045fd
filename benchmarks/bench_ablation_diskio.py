"""Ablation: disk-based access — page I/O vs buffer-pool capacity.

The paper claims "disk-based access of graphs can be done efficiently"
(Section 1.2, advantage 4).  This bench materializes the Fig. 7 C-tree into
a page file and sweeps the LRU buffer-pool capacity, reporting page misses
per query on a cold and a warm cache.  Pruning locality is what makes the
numbers small: a query only faults the subtrees it cannot prune.
"""

from conftest import record_table

from repro.ctree.diskindex import DiskCTree
from repro.datasets.queries import generate_subgraph_queries
from repro.experiments.reporting import format_series_table

CACHE_SIZES = (4, 16, 64, 256, 4096)
QUERY_SIZE = 10
QUERIES = 4


def test_ablation_disk_io(benchmark, chem_tree, chem_database, tmp_path):
    queries = generate_subgraph_queries(
        chem_database, QUERY_SIZE, QUERIES, seed=41
    )
    path = tmp_path / "index.ctp"
    DiskCTree.create(chem_tree, path, page_size=4096, cache_pages=64).close()

    def sweep():
        cold, warm, hit_ratio = [], [], []
        for capacity in CACHE_SIZES:
            with DiskCTree.open(path, cache_pages=capacity) as disk:
                cold_misses = warm_misses = 0
                hits = misses = 0
                for q in queries:
                    _, stats = disk.subgraph_query(q)
                    cold_misses += stats.page_misses
                for q in queries:
                    _, stats = disk.subgraph_query(q)
                    warm_misses += stats.page_misses
                    hits += stats.page_hits
                    misses += stats.page_misses
                cold.append(cold_misses / QUERIES)
                warm.append(warm_misses / QUERIES)
                total = hits + misses
                # a warm pass that read no page has no hit ratio ("-")
                hit_ratio.append(hits / total if total else None)
        return cold, warm, hit_ratio

    cold, warm, hit_ratio = benchmark.pedantic(sweep, rounds=1, iterations=1)

    record_table(
        "ablation_disk_io",
        format_series_table(
            f"Ablation: page misses per query vs cache capacity "
            f"({QUERIES} size-{QUERY_SIZE} queries)",
            "cache pages",
            list(CACHE_SIZES),
            {
                "cold misses/query": cold,
                "warm misses/query": warm,
                "warm hit ratio": hit_ratio,
            },
            float_format="{:.2f}",
        ),
    )

    # Warm misses shrink (weakly) as the cache grows, and a cache larger
    # than the index eliminates them entirely.
    assert all(b <= a + 1e-9 for a, b in zip(warm, warm[1:]))
    assert warm[-1] == 0.0
    # Cold traversals always fault at least the root.
    assert all(c >= 1.0 for c in cold)


def test_bench_disk_query(benchmark, chem_tree, chem_database, tmp_path):
    """Micro-benchmark: one disk-resident subgraph query, warm cache."""
    path = tmp_path / "bench.ctp"
    DiskCTree.create(chem_tree, path, cache_pages=1024).close()
    query = generate_subgraph_queries(chem_database, 10, 1, seed=42)[0]
    with DiskCTree.open(path, cache_pages=1024) as disk:
        disk.subgraph_query(query)  # warm the pool
        answers, _ = benchmark(lambda: disk.subgraph_query(query))
        assert isinstance(answers, list)
