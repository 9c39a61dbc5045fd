"""Ablation: the design choices of Section 5.

The paper picks *min-volume-increase* insertion and *linear pivot* splits as
its quality/time trade-off.  This bench builds trees with every policy
combination the paper discusses and reports construction time and filtering
power, plus the NBM-vs-bipartite choice for closure construction.
"""

import time

from conftest import record_table

from repro.ctree.stats import QueryStats
from repro.ctree.subgraph_query import subgraph_query
from repro.ctree.tree import CTree
from repro.datasets.chemical import generate_chemical_database
from repro.datasets.queries import generate_subgraph_queries
from repro.experiments.reporting import format_series_table

DB_SIZE = 80
QUERIES = 6
QUERY_SIZE = 10


def _build_and_measure(graphs, queries, **tree_kwargs):
    start = time.perf_counter()
    tree = CTree(min_fanout=4, **tree_kwargs)
    tree.extend(graphs, seed=1)
    build_seconds = time.perf_counter() - start
    tree.validate()
    merged = QueryStats()
    for q in queries:
        _, stats = subgraph_query(tree, q, level=1)
        merged.merge(stats)
    return {
        "build_s": build_seconds,
        "candidates": merged.candidates / len(queries),
        "answers": merged.answers / len(queries),
        "gamma": merged.access_ratio / len(queries),
    }


def test_ablation_insert_and_split_policies(benchmark):
    graphs = generate_chemical_database(DB_SIZE, seed=23)
    queries = generate_subgraph_queries(graphs, QUERY_SIZE, QUERIES, seed=5)

    def run_all():
        rows = {}
        for insert_policy in ("random", "min_volume", "min_overlap"):
            rows[f"insert={insert_policy}"] = _build_and_measure(
                graphs, queries,
                insert_policy=insert_policy, split_policy="linear",
            )
        for split_policy in ("random", "linear"):
            rows[f"split={split_policy}"] = _build_and_measure(
                graphs, queries,
                insert_policy="min_volume", split_policy=split_policy,
            )
        for mapping_method in ("nbm", "bipartite"):
            rows[f"mapper={mapping_method}"] = _build_and_measure(
                graphs, queries,
                mapping_method=mapping_method,
            )
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)

    names = list(rows)
    record_table(
        "ablation_policies",
        format_series_table(
            f"Ablation: C-tree policies (|D|={DB_SIZE}, "
            f"{QUERIES} size-{QUERY_SIZE} queries, level=1)",
            "configuration",
            names,
            {
                "build (s)": [rows[n]["build_s"] for n in names],
                "avg |CS|": [rows[n]["candidates"] for n in names],
                "avg |Ans|": [rows[n]["answers"] for n in names],
                "gamma": [rows[n]["gamma"] for n in names],
            },
        ),
    )

    # All configurations answer identically (answers are exact).
    answers = {round(rows[n]["answers"], 6) for n in names}
    assert len(answers) == 1
    # The paper's default (min_volume) filters no worse than random insert.
    assert rows["insert=min_volume"]["candidates"] <= (
        rows["insert=random"]["candidates"] * 1.5
    )
