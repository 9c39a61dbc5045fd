"""Closure-tree: the paper's core contribution."""

from repro.ctree.bulkload import bulk_load
from repro.ctree.cost_model import (
    CostModel,
    direct_estimate_r0,
    fit_cost_model,
    fit_from_stats,
    mean_fanout,
    per_level_averages,
)
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
    "CostModel",
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
    "direct_estimate_r0",
    "fit_cost_model",
    "fit_from_stats",
    "fsck_index",
    "index_kind",
    "index_size_bytes",
    "knn_query",
    "linear_scan_knn",
    "linear_scan_subgraph_query",
    "mean_fanout",
    "open_index",
    "per_level_averages",
    "range_query",
    "subgraph_query",
    "tree_to_dict",
]
