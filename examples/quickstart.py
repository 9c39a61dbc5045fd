#!/usr/bin/env python
"""Quickstart: index a handful of graphs and run every query type.

Run with:  python examples/quickstart.py
"""

from repro import CTree, Graph, knn_query, range_query, subgraph_query

# ----------------------------------------------------------------------
# 1. Build a tiny graph database: a few molecules, hand-drawn.
# ----------------------------------------------------------------------
ethanol = Graph(["C", "C", "O"], [(0, 1), (1, 2)], name="ethanol")
acetic_acid = Graph(
    ["C", "C", "O", "O"], [(0, 1), (1, 2), (1, 3)], name="acetic acid"
)
glycine = Graph(
    ["N", "C", "C", "O", "O"], [(0, 1), (1, 2), (2, 3), (2, 4)], name="glycine"
)
benzene = Graph(
    ["C"] * 6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)], name="benzene"
)
phenol = Graph(
    ["C"] * 6 + ["O"],
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 6)],
    name="phenol",
)

tree = CTree(min_fanout=2)  # tiny fanout for a tiny database
molecules = [ethanol, acetic_acid, glycine, benzene, phenol]
for gid, molecule in zip(tree.extend(molecules), molecules):
    print(f"inserted #{gid}: {molecule.name}")

print(f"\nindex: {tree}")

# ----------------------------------------------------------------------
# 2. Subgraph query: which molecules contain a C-O bond?
# ----------------------------------------------------------------------
c_o_bond = Graph(["C", "O"], [(0, 1)])
answers, stats = subgraph_query(tree, c_o_bond)
names = [tree.get(gid).name for gid in answers]
print(f"\ngraphs containing a C-O bond: {sorted(names)}")
print(f"  candidates={stats.candidates} answers={stats.answers} "
      f"accuracy={stats.accuracy:.0%}")

# A carboxyl pattern (C bonded to two O): only acetic acid and glycine.
carboxyl = Graph(["C", "O", "O"], [(0, 1), (0, 2)])
answers, _ = subgraph_query(tree, carboxyl)
print(f"graphs containing a carboxyl group: "
      f"{sorted(tree.get(g).name for g in answers)}")

# ----------------------------------------------------------------------
# 3. Similarity queries.
# ----------------------------------------------------------------------
results, _ = knn_query(tree, phenol, k=2)
print("\n2 nearest neighbors of phenol:")
for gid, similarity in results:
    print(f"  {tree.get(gid).name:12s} similarity={similarity:.0f}")

in_range, _ = range_query(tree, ethanol, radius=4.0)
print("\ngraphs within edit distance 4 of ethanol:")
for gid, distance in in_range:
    print(f"  {tree.get(gid).name:12s} distance={distance:.0f}")

# ----------------------------------------------------------------------
# 4. Dynamic updates.
# ----------------------------------------------------------------------
(removed,) = tree.delete_many([0])
print(f"\ndeleted {removed.name}; |D| is now {len(tree)}")
answers, _ = subgraph_query(tree, c_o_bond)
print(f"C-O bond answers after deletion: "
      f"{sorted(tree.get(g).name for g in answers)}")
