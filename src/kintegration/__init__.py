"""Tools for measuring and constructing k-integrated community networks.

A network of complete communities is k-integrated when every pair of
nodes is within distance k.  This package measures that property on
real edge lists, tabulates the minimum bridge and central-node counts
required for each k, generates minimal constructions, and certifies
minimality on small instances by exhaustive search.
"""

from .constructions import (
    Construction,
    QuotientGraph,
    complete_join,
    complete_quotient,
    cycle_quotient,
    extended_star,
    figure1_quotient,
    path_quotient,
    star_quotient,
    two_star,
)
from .errors import (
    DisconnectedQuotientError,
    EmptyCommunityMapError,
    InvalidNodeError,
    InvalidParamsError,
    KIntegrationError,
    ModelViolationError,
    ParseError,
    SelfLoopError,
    UnknownNodeError,
    UnsupportedCommunityCountError,
)
from .fileio import load_graph, parse_community_map, parse_edge_list, write_graph
from .graph import (
    CommunityGraph,
    bridges,
    build_graph,
    central_nodes,
    is_locally_complete,
    local_edges,
    localize_complete,
)
from .metrics import (
    IntegrationReport,
    KVerdict,
    bounded_bfs,
    build_report,
    eccentricity,
    integration_level,
    is_k_integrated,
)
from .oracle import (
    OracleVerdict,
    RowCheck,
    check_threshold_row,
    min_bridges_exhaustive,
    min_bridges_for_sizes,
    min_bridges_randomized,
)
from .thresholds import (
    Bound,
    SegregationVerdict,
    ThresholdRow,
    bridge_threshold,
    central_threshold,
    pair_bridge_minimum,
    segregation_verdict,
    threshold_row,
    threshold_rows,
)

__version__ = "0.1.0"

__all__ = [
    "Bound",
    "CommunityGraph",
    "Construction",
    "DisconnectedQuotientError",
    "EmptyCommunityMapError",
    "IntegrationReport",
    "InvalidNodeError",
    "InvalidParamsError",
    "KIntegrationError",
    "KVerdict",
    "ModelViolationError",
    "OracleVerdict",
    "ParseError",
    "QuotientGraph",
    "RowCheck",
    "SegregationVerdict",
    "SelfLoopError",
    "ThresholdRow",
    "UnknownNodeError",
    "UnsupportedCommunityCountError",
    "bounded_bfs",
    "bridge_threshold",
    "bridges",
    "build_graph",
    "build_report",
    "central_nodes",
    "central_threshold",
    "check_threshold_row",
    "complete_join",
    "complete_quotient",
    "cycle_quotient",
    "eccentricity",
    "extended_star",
    "figure1_quotient",
    "integration_level",
    "is_k_integrated",
    "is_locally_complete",
    "load_graph",
    "local_edges",
    "localize_complete",
    "min_bridges_exhaustive",
    "min_bridges_for_sizes",
    "min_bridges_randomized",
    "pair_bridge_minimum",
    "parse_community_map",
    "parse_edge_list",
    "path_quotient",
    "segregation_verdict",
    "star_quotient",
    "threshold_row",
    "threshold_rows",
    "two_star",
    "write_graph",
    "__version__",
]
