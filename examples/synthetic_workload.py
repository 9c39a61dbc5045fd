#!/usr/bin/env python
"""Synthetic-workload walkthrough: generator, cost model, persistence.

Reproduces the paper's synthetic-dataset setup (Kuramochi-Karypis
parameters S=100, I=10, T=50, L=10, scaled down), runs subgraph queries,
fits the Section 6.3 cost model to the observed traversal statistics, and
shows the estimated vs actual access ratio — Fig. 9(b) in miniature.
Finally persists the index as a disk page file and reopens it.

Run with:  python examples/synthetic_workload.py
"""

import tempfile
from pathlib import Path

from repro import bulk_load, subgraph_query
from repro.ctree import DiskCTree, QueryStats
from repro.datasets import (
    SyntheticConfig,
    generate_subgraph_queries,
    generate_synthetic_database,
)
from repro.experiments import fit_from_stats, mean_fanout

config = SyntheticConfig(
    num_graphs=100,       # paper: 10,000
    num_seeds=100,        # S
    seed_mean_size=10.0,  # I
    graph_mean_size=50.0, # T
    num_labels=10,        # L
)
print(f"generating synthetic database (D={config.num_graphs}, S=100, "
      f"I=10, T=50, L=10)...")
graphs = generate_synthetic_database(config, seed=3)
avg = sum(g.num_vertices for g in graphs) / len(graphs)
print(f"  avg |V|={avg:.1f}")

tree = bulk_load(graphs, min_fanout=10)
print(f"built {tree}")

# ----------------------------------------------------------------------
# Query sweep + cost model (Sec. 6.3).
# ----------------------------------------------------------------------
print(f"\n{'query size':>10} {'answers':>8} {'gamma actual':>13} "
      f"{'gamma estimated':>16}")
for size in (5, 10, 15):
    queries = generate_subgraph_queries(graphs, size, 5, seed=size)
    merged = QueryStats()
    for q in queries:
        _, stats = subgraph_query(tree, q, level=1)
        merged.merge(stats)
    model = fit_from_stats(merged, fanout=mean_fanout(tree))
    actual = merged.access_ratio / len(queries)
    print(f"{size:>10} {merged.answers / len(queries):>8.1f} "
          f"{actual:>13.2%} {model.estimated_access_ratio():>16.2%}")

print("\naccess ratio falls with query size (bigger motifs prune harder),"
      "\nand the fitted Eqn. 11-13 model tracks the measured curve.")

# ----------------------------------------------------------------------
# Persistence round trip.
# ----------------------------------------------------------------------
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "synthetic.ctp"
    DiskCTree.create(tree, path).close()
    with DiskCTree.open(path) as reloaded:
        print(f"\npersisted index: {path.stat().st_size} bytes; "
              f"reloaded |D|={len(reloaded)}")
        q = generate_subgraph_queries(graphs, 8, 1, seed=99)[0]
        a1, _ = subgraph_query(tree, q)
        a2, _ = subgraph_query(reloaded, q)
    assert sorted(a1) == sorted(a2)
    print("reloaded index answers the same queries. done.")
