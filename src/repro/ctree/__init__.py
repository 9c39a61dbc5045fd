"""Closure-tree: the paper's core contribution."""

from repro.ctree.bulkload import bulk_load
from repro.ctree.diskindex import (
    DiskCTree,
    DiskKnnStats,
    DiskQueryStats,
    DiskRecovery,
    FsckReport,
)
from repro.ctree.node import CTreeNode, LeafEntry
from repro.ctree.parallel import BatchReport, QueryEngine
from repro.ctree.persistence import index_size_bytes, tree_to_dict
from repro.ctree.saved import fsck_index, index_kind, open_index
from repro.ctree.similarity_query import (
    closure_distance_lower_bound,
    knn_query,
    linear_scan_knn,
    range_query,
)
from repro.ctree.stats import KnnStats, QueryStats
from repro.ctree.subgraph_query import (
    linear_scan_subgraph_query,
    subgraph_query,
)
from repro.ctree.tree import CTree

__all__ = [
    "BatchReport",
    "CTree",
    "CTreeNode",
    "DiskCTree",
    "DiskKnnStats",
    "DiskQueryStats",
    "DiskRecovery",
    "FsckReport",
    "KnnStats",
    "LeafEntry",
    "QueryEngine",
    "QueryStats",
    "bulk_load",
    "closure_distance_lower_bound",
    "fsck_index",
    "index_kind",
    "index_size_bytes",
    "knn_query",
    "linear_scan_knn",
    "linear_scan_subgraph_query",
    "open_index",
    "range_query",
    "subgraph_query",
    "tree_to_dict",
]
