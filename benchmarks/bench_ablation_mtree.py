"""Ablation: C-tree vs an M-tree baseline for K-NN queries.

Section 1.2 contrasts C-tree with metric-space graph indexes [1, 3, 13]
whose routing object is a *database graph* plus a covering radius, instead
of a generalized graph.  Both trees here consume the same NBM distance
oracle; the figure of merit is expensive distance/similarity computations
per query (each one is a full graph mapping).

The C-tree gets two numbers: exact mappings computed (graphs scored) and
cheap Eqn. (7) bound evaluations (children scored) — its bounds come from
closures "for free", while every M-tree bound costs a full distance
computation against the routing object.
"""

from conftest import record_table

from repro.ctree.bulkload import bulk_load
from repro.ctree.similarity_query import knn_query
from repro.datasets.chemical import generate_chemical_database
from repro.datasets.queries import select_similarity_queries
from repro.experiments.reporting import format_series_table
from repro.mtree.tree import build_mtree

DB_SIZE = 100
KS = (1, 5, 10)
QUERIES = 5


def test_ablation_ctree_vs_mtree_knn(benchmark):
    graphs = generate_chemical_database(DB_SIZE, seed=19)
    queries = select_similarity_queries(graphs, QUERIES, seed=3)

    def run():
        ctree = bulk_load(graphs, min_fanout=5, seed=1)
        mtree = build_mtree(graphs, max_fanout=9, seed=1)
        rows = {
            "C-tree mappings": [],
            "C-tree bound evals": [],
            "M-tree distances": [],
        }
        for k in KS:
            ct_exact = ct_bounds = mt_dist = 0
            for query in queries:
                _, cstats = knn_query(ctree, query, k)
                ct_exact += cstats.graphs_scored
                ct_bounds += cstats.children_scored
                _, mstats = mtree.knn_query(query, k)
                mt_dist += mstats.distance_computations
            rows["C-tree mappings"].append(ct_exact / QUERIES)
            rows["C-tree bound evals"].append(ct_bounds / QUERIES)
            rows["M-tree distances"].append(mt_dist / QUERIES)
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    record_table(
        "ablation_mtree",
        format_series_table(
            f"Ablation: expensive computations per K-NN query, "
            f"C-tree vs M-tree (|D|={DB_SIZE})",
            "K",
            list(KS),
            rows,
            float_format="{:.1f}",
        ),
    )

    # The structural summary pays off: the C-tree needs no more full
    # mappings than the M-tree needs full distance computations.
    for ct, mt in zip(rows["C-tree mappings"], rows["M-tree distances"]):
        assert ct <= mt * 1.2
    # Both grow (weakly) with K.
    for series in rows.values():
        assert all(b >= a - 1e-9 for a, b in zip(series, series[1:]))
