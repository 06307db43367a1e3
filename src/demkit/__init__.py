"""demkit: distance-edge monitoring of graphs.

A monitoring set is a set of vertices whose pairwise distances to the rest
of the graph change whenever any single edge fails.  The package computes
per-vertex monitored-edge sets and per-edge pair sets (each with an
independent definitional oracle), solves for the minimum monitoring number
exactly and greedily, evaluates the structural characterizations of small
monitoring numbers, and generates the extremal families those results name.
"""

from .errors import (
    BadParameterError,
    DemkitError,
    DisconnectedError,
    EdgeNotPresentError,
    FormatError,
    IsTreeError,
    NotZeroError,
    OutOfRangeError,
    SelfLoopError,
    TooLargeError,
)
from .graph import (
    UNREACHABLE,
    BaseGraphResult,
    DistanceLayers,
    Graph,
    base_graph,
    bfs_distances,
    bridges,
    build_graph,
    canonical_edge,
    degree_extremes,
    distance_after_deletion,
    is_complete,
    is_connected,
    is_tree,
)
from .monitor import (
    EmSet,
    MonitoringCertificate,
    PairSet,
    PairSetZeroReason,
    em_set,
    em_set_naive,
    is_monitoring_set,
    p_set,
    p_set_size_zero_reason,
)
from .solvers import DemResult, dem_exact, dem_greedy, verify_dem_result
from .structural import (
    BoundsReport,
    ConditionReport,
    LayerProfile,
    bounds_report,
    dem2_pair_check,
    dem3_triple_check,
    dem_is_2,
    em_cardinality_checks,
    layer_profile,
    verify_em2_family_member,
)

__version__ = "0.1.0"

__all__ = [
    "BadParameterError",
    "BaseGraphResult",
    "BoundsReport",
    "ConditionReport",
    "DemkitError",
    "DemResult",
    "DisconnectedError",
    "DistanceLayers",
    "EdgeNotPresentError",
    "EmSet",
    "FormatError",
    "Graph",
    "IsTreeError",
    "LayerProfile",
    "MonitoringCertificate",
    "NotZeroError",
    "OutOfRangeError",
    "PairSet",
    "PairSetZeroReason",
    "SelfLoopError",
    "TooLargeError",
    "UNREACHABLE",
    "base_graph",
    "bfs_distances",
    "bounds_report",
    "bridges",
    "build_graph",
    "canonical_edge",
    "degree_extremes",
    "dem2_pair_check",
    "dem3_triple_check",
    "dem_exact",
    "dem_greedy",
    "dem_is_2",
    "distance_after_deletion",
    "em_cardinality_checks",
    "em_set",
    "em_set_naive",
    "is_complete",
    "is_connected",
    "is_monitoring_set",
    "is_tree",
    "layer_profile",
    "p_set",
    "p_set_size_zero_reason",
    "verify_dem_result",
    "verify_em2_family_member",
]
