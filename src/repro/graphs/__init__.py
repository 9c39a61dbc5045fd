"""Graph substrate: labeled graphs, closures, label spaces, mappings, I/O."""

from repro.graphs.closure import (
    EPSILON,
    WILDCARD,
    GraphClosure,
    as_closure,
    closure_under_mapping,
    contains_wildcard,
)
from repro.graphs.graph import Graph
from repro.graphs.labelspace import (
    EPSILON_BIT,
    WILDCARD_BIT,
    LabelSpace,
    TargetContext,
    global_labelspace,
    masks_match,
    reset_labelspace,
    target_context,
)
from repro.graphs.mapping import (
    DUMMY_SET,
    GraphMapping,
    uniform_set_distance,
    uniform_set_similarity,
)

__all__ = [
    "EPSILON",
    "EPSILON_BIT",
    "WILDCARD",
    "WILDCARD_BIT",
    "DUMMY_SET",
    "Graph",
    "GraphClosure",
    "GraphMapping",
    "LabelSpace",
    "TargetContext",
    "as_closure",
    "closure_under_mapping",
    "contains_wildcard",
    "global_labelspace",
    "masks_match",
    "reset_labelspace",
    "target_context",
    "uniform_set_distance",
    "uniform_set_similarity",
]
